"""The NVCA accelerator model: SFTC, DCC, buffers, chaining dataflow,
performance/energy/area analysis, platform comparisons, and the
event-driven pipeline simulator."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".arch": ("BufferSpec", "NVCAConfig"),
    ".buffers": (
        "BufferModel", "BufferOverflowError", "max_stripe_width",
        "required_chain_rows", "validate_chain_capacity",
    ),
    ".area": ("AreaReport", "GateUnits", "area_report"),
    ".dataflow": (
        "ChainLayer", "InputBufferScheduler", "ModuleTraffic", "ScheduleStep",
        "TrafficReport", "compare_traffic",
    ),
    ".dcc": ("DCCLayerCost", "dcc_layer_cost"),
    ".dse": (
        "DesignPoint", "evaluate_point", "pareto_front",
        "sweep_array_geometry", "sweep_frequency", "sweep_sparsity",
    ),
    ".energy": ("EnergyReport", "EnergyUnits", "energy_report"),
    ".perf": ("PerformanceReport", "analyze_graph"),
    ".platforms": (
        "ALCHEMIST", "CPU_I9_9900X", "GPU_RTX3090", "REFERENCE_PLATFORMS",
        "REFERENCE_PLATFORM_SPECS", "SHAO_TCAS22", "PlatformSpec", "nvca_spec",
        "scale_frequency", "scale_platform", "scale_power",
    ),
    ".scheduler": ("GraphSchedule", "LayerSchedule", "schedule_graph"),
    ".sftc": ("SFTCLayerCost", "sftc_layer_cost"),
    ".simulator": ("SimResult", "simulate_graph", "simulate_layer"),
})
