"""Performance harness: stage timings and the BENCH_perf.json trajectory."""

from .bench import (
    FULL_SIZES,
    LCG_H_VALUES,
    QUICK_H,
    QUICK_SIZES,
    check_lcg_regression,
    check_regression,
    main,
    run_benchmark,
)

__all__ = [
    "FULL_SIZES",
    "LCG_H_VALUES",
    "QUICK_H",
    "QUICK_SIZES",
    "check_lcg_regression",
    "check_regression",
    "main",
    "run_benchmark",
]
