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


def test_benchmark_spans_are_reached():
    # a checked lazy fuzz run and one factor-revealing solve pass through
    # every wrapped entry point; a call routed around one would read 0.
    # Both are called through their modules, where the tracer wraps them
    from openride import experiments, factor_revealing
    from perfbench.tracing import LAYERS, Tracer

    cfg = experiments.FuzzConfig(count=20, alpha=openride.OPTIMAL_ALPHA_GENERAL, check_schedules=True)
    assert any(experiments.generate_instance(cfg, i).space.kind == experiments.MATRIX
               for i in range(cfg.count))
    tracer = Tracer()
    with tracer.installed():
        assert experiments.fuzz(cfg, "lazy").violations == 0
        factor_revealing.solve_fr(1.2)
    calls = {layer: tracer.metrics()[f"{layer}.calls"] for layer, *_ in LAYERS}
    # solve_fr hands its 16 branch LPs to lp.solve_lps in one call, and no
    # span wraps that yet, so the simplex's span (factor_revealing.solve_lp)
    # is the one left at 0; every other span must still be reached
    assert [layer for layer, n in calls.items() if n < 1] == ["lp.solve_lp"], calls
