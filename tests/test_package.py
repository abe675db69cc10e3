"""The package's top-level names."""

import openride


def test_public_surface():
    assert sorted(openride.__all__) == [
        "HALF_LINE_LOWER_BOUND", "LazyPolicy", "OPTIMAL_ALPHA_GENERAL",
        "OPTIMAL_ALPHA_HALF_LINE", "OptCache", "competitive_ratio", "half_line",
        "make_instance", "simulate",
    ]
    for name in openride.__all__:
        assert getattr(openride, name) is not None


def test_benchmark_entry_points_exist():
    # the benchmark's tracer wraps entry points by name, such as
    # OptCache.solve_prefix, engine.shortest_schedule and
    # experiments.validate_schedule; renaming one must fail here
    from perfbench.tracing import Tracer

    with Tracer().installed():
        pass
