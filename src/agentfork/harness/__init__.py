from .workload import (
    bundled_workload_path,
    list_bundled_workloads,
    load_workload,
    read_workload,
    save_workload,
)
from .generate import GenerateParams, generate_synthetic
from .report import emit_report, parse_machine_report
from .simulate import run_simulation
