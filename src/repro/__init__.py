"""repro — a reproduction of *On the Greenness of In-Situ and
Post-Processing Visualization Pipelines* (Adhinarayanan et al.,
IPDPSW 2015).

The paper is an empirical power/energy study; this library rebuilds its
testbed as a calibrated full-system simulation and its experiment as
runnable pipelines:

* :mod:`repro.machine` — the dual-socket Sandy Bridge node of Table I
  (CPU / DRAM / 7200 rpm HDD power and timing models, plus SSD / NVRAM /
  RAID / cluster extensions);
* :mod:`repro.power` — emulated RAPL counters and Wattsup wall meter;
* :mod:`repro.system` — page cache, filesystem, block layer, I/O
  schedulers;
* :mod:`repro.sim` — the proxy 2-D heat-transfer application;
* :mod:`repro.viz` — a real software renderer (colormaps, contours, PNG);
* :mod:`repro.pipelines` — post-processing, in-situ, and in-transit
  pipelines;
* :mod:`repro.workloads` — the fio-equivalent disk benchmark and the
  paper's three case studies;
* :mod:`repro.analysis` — greenness metrics, comparisons, the savings
  breakdown, and the Section V.D what-if;
* :mod:`repro.runtime` — the future-work disk power model and
  optimization advisor;
* :mod:`repro.experiments` — one callable per paper figure/table.

Quickstart::

    from repro import run_case_study

    outcome = run_case_study(1)
    print(f"in-situ saves {outcome.energy_savings_fraction:.0%}")
"""

from repro.errors import ReproError
from repro.lazy import lazy_exports
from repro.version import __version__

# Everything else loads on first use (PEP 562): ``import repro.errors``
# or ``repro query`` must not pay for numpy and the whole model stack.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config": ("ExperimentConfig",),
    "repro.machine": ("Node", "paper_testbed"),
    "repro.pipelines": ("PipelineConfig", "PipelineRunner",
                        "PostProcessingPipeline", "InSituPipeline",
                        "InTransitPipeline", "RunResult"),
    "repro.power": ("MeterRig", "PowerProfile"),
    "repro.analysis": ("GreennessReport", "compare_cases"),
    "repro.workloads": ("FioRunner", "run_case_study", "run_all_cases"),
    "repro.experiments": ("CASE_STUDIES", "Lab", "run_experiment"),
})

__all__ = [
    "__version__",
    "ReproError",
    "ExperimentConfig",
    "Node",
    "paper_testbed",
    "PipelineConfig",
    "PipelineRunner",
    "PostProcessingPipeline",
    "InSituPipeline",
    "InTransitPipeline",
    "RunResult",
    "MeterRig",
    "PowerProfile",
    "GreennessReport",
    "compare_cases",
    "FioRunner",
    "run_case_study",
    "run_all_cases",
    "CASE_STUDIES",
    "Lab",
    "run_experiment",
]
