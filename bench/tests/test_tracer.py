"""The tracer's arithmetic, and that its wrappers are passive and removable."""

from __future__ import annotations

import pytest

from bench.tracer import LAYER_TARGETS, Target, Tracer, chrome_trace


def inner():
    return 1


def outer():
    return inner() + inner()


class FakeClock:
    """Hands out the given nanosecond readings, one per call."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


TARGETS = (
    Target("test.outer", __name__, "outer"),
    Target("test.inner", __name__, "inner"),
)


def test_self_time_subtracts_child_spans():
    # outer [0, 100] holds inner [10, 30] and inner [50, 90]
    tracer = Tracer(TARGETS, clock=FakeClock([0, 10, 30, 50, 90, 100]))
    with tracer:
        assert outer() == 2
    layers = tracer.layers()
    assert layers["test.outer"] == (1, 100e-9, 40e-9)
    assert layers["test.inner"] == (2, 60e-9, 60e-9)
    depths = {(layer, depth) for layer, _, _, depth in tracer.spans}
    assert depths == {("test.outer", 0), ("test.inner", 1)}


def test_reset_zeroes_and_chrome_export_keeps_every_span():
    tracer = Tracer(TARGETS, clock=FakeClock(range(0, 1000, 10)))
    with tracer:
        outer()
    trace = chrome_trace(tracer.spans, "test")
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert sorted(e["name"] for e in complete) == [
        "test.inner", "test.inner", "test.outer"]
    tracer.reset()
    assert tracer.layers() == {} and tracer.spans == []


def test_uninstall_restores_every_binding():
    import repro.contacts.rates as rates
    import repro.core.scheme as scheme
    import repro.experiments.artifacts as artifacts
    from repro.core.scheme import SchemeRuntime
    from repro.mobility.calibration import TraceProfile
    from repro.sim.soa import ContactEventStream

    originals = (rates.mle_rates, scheme.build_simulation,
                 artifacts.mle_rates, SchemeRuntime.__dict__["run"],
                 TraceProfile.__dict__["generate"],
                 ContactEventStream.__dict__["from_arrays"])
    tracer = Tracer(LAYER_TARGETS)
    with tracer:
        assert rates.mle_rates is not originals[0]
        assert artifacts.mle_rates is rates.mle_rates
        assert SchemeRuntime.__dict__["run"] is not originals[3]
        with pytest.raises(RuntimeError):
            tracer.install()
    assert (rates.mle_rates, scheme.build_simulation, artifacts.mle_rates,
            SchemeRuntime.__dict__["run"], TraceProfile.__dict__["generate"],
            ContactEventStream.__dict__["from_arrays"]) == originals


def test_traced_run_matches_untraced_run():
    from repro.experiments.artifacts import cache_clear
    from repro.experiments.config import Settings
    from repro.experiments.runner import make_trace, run_once

    settings = Settings.fast().with_(probe_interval=60.0)

    def run(scheme):
        cache_clear()
        return run_once(make_trace(settings, 3), scheme, settings, seed=3,
                        with_queries=True)

    plain = [run(s) for s in ("hdr", "flooding", "invalidate")]
    tracer = Tracer(LAYER_TARGETS)
    with tracer:
        traced = [run(s) for s in ("hdr", "flooding", "invalidate")]
    assert all(a.same_as(b) for a, b in zip(plain, traced))
    layers = tracer.layers()
    for layer in ("mobility.synth", "core.scheme.build", "sim.engine",
                  "core.refresh.hdr", "core.refresh.flood",
                  "core.refresh.invalidate", "routing.contact",
                  "caching.query.handler", "analysis.score"):
        assert layers[layer][0] > 0, layer
    assert [loop[0] for loop in tracer.loops] == ["core.scheme.run"] * 3
