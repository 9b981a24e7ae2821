"""Self-tests of the benchmark: span arithmetic, the output gate, the tracer, the inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from heckeseries import algebra, cli, series, spherical  # noqa: E402
from heckeseries.errors import NoSolution  # noqa: E402


# -- span arithmetic -------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["d", 3.5, 7.0, 0, 0],  # overlaps b: the union 1..7 is covered, not 3 + 3.5
        ["b", 8.0, 9.0, 0, 0],
        ["a", 20.0, 21.0, -1, 1],
    ]
    assert tracing.exclusive_time(spans, "a") == pytest.approx(10 - 6 - 1 + 1)
    assert tracing.exclusive_time(spans, "b") == pytest.approx(3 - 1 + 1)
    assert tracing.exclusive_time(spans, "c") == pytest.approx(1)
    assert tracing.exclusive_time(spans, "a", {"b"}) == pytest.approx(10 - 3 - 1 + 1)
    assert tracing.inclusive_time(spans, "b") == pytest.approx(4)


def test_observe_hooks_are_not_charged_to_the_caller():
    obs = tracing.OBSERVE
    spans = [
        ["caller", 0.0, 10.0, -1, 0],
        ["callee", 1.0, 3.0, 0, 0],
        [obs, 3.0, 5.0, 0, 0],  # the callee's hook runs after its span closes
        [obs, 2.0, 2.5, 1, 0],  # a hook inside the callee
    ]
    assert tracing.exclusive_time(spans, "caller") == pytest.approx(10 - 2 - 2)
    assert tracing.exclusive_time(spans, "callee") == pytest.approx(2 - 0.5)
    assert tracing.exclusive_time(spans, "caller", {"callee", obs}) == pytest.approx(6)
    assert tracing.inclusive_time(spans, "callee", obs) == pytest.approx(2 - 0.5)
    assert tracing.inclusive_time(spans, "caller", obs) == pytest.approx(10 - 2 - 0.5)


def test_hook_runs_in_an_observe_span_under_the_caller():
    tracer = tracing.Tracer()
    inner = tracer.span(lambda x: x + 1, "inner", lambda args, result: None)
    outer = tracer.span(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    assert [(s[tracing.NAME], s[tracing.PARENT]) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), (tracing.OBSERVE, 0)
    ]


def test_inclusive_time_counts_nested_same_name_once():
    spans = [["x", 0.0, 5.0, -1, None], ["y", 1.0, 4.0, 0, None], ["x", 2.0, 3.0, 1, None]]
    assert tracing.inclusive_time(spans, "x") == pytest.approx(5)
    assert tracing.exclusive_time(spans, "x") == pytest.approx(5 - 3 + 1)


# -- the exact output gate -------------------------------------------------


def test_corrupted_genus3_output_is_a_failure():
    argv = workloads.Genus3Cli.prepare(workloads.generate("genus3-cli", 0)[0])
    text, json_ = (
        (workloads.REFERENCE_DIR / f"{argv[0]}.{fmt}").read_bytes()
        for fmt in workloads.GENUS3_FORMATS
    )
    corrupt = bytes([json_[0] ^ 1]) + json_[1:]
    assert workloads.Genus3Cli.check(argv, [(0, text), (0, json_)])
    assert not workloads.Genus3Cli.check(argv, [(0, text), (0, corrupt)])
    assert not workloads.Genus3Cli.check(argv, [(1, text), (0, json_)])


def test_corrupted_seeded_outputs_are_failures():
    query = workloads.CosetOracle.prepare({"lambda": [2, 1, 0], "n": 3, "prime": 2})
    cosets, closed = workloads.CosetOracle.serve(query)
    assert workloads.CosetOracle.check(query, (cosets, closed))
    assert not workloads.CosetOracle.check(query, (cosets, closed * 2))

    item = workloads.HeckeSolve.prepare(workloads.generate("hecke-solve", 3)[0])
    solved = workloads.HeckeSolve.serve(item)
    assert workloads.HeckeSolve.check(item, solved)
    assert not workloads.HeckeSolve.check(item, solved + series.T_P)

    item = workloads.RingRational.prepare(workloads.generate("ring-rational", 3)[0])
    out = workloads.RingRational.serve(item)
    assert workloads.RingRational.check(item, out)
    assert not workloads.RingRational.check(item, out[:3] + (out[3] * 2,))
    assert not workloads.RingRational.check(item, (out[0] * 2,) + out[1:])


def test_raised_heckeerror_counts_as_failed(monkeypatch, tmp_path):
    def refuse(target, x0_wt):
        raise NoSolution("refused")

    monkeypatch.setattr(series, "express_in_generators", refuse)
    requests = workloads.generate("hecke-solve", 5)[:3]
    _, _, latencies, oks = child.run_job("hecke-solve", requests, str(tmp_path))
    assert len(latencies) == 3 and oks == [False, False, False]


# -- the tracer --------------------------------------------------------------


#: the library's memoized functions, bound before any tracer replaces them
CACHED = (spherical.omega_hl, spherical._coset_buckets, spherical.phi, series.r_series,
          series.q_poly, series.p_numerator, series._generator_image_power)


def _clear_caches():
    for fn in CACHED:
        fn.cache_clear()


def _library_results(tmp_path):
    nv = 4
    a = algebra.XPoly(nv, {(1, 0, 2, 0): algebra.PrimeLaurent({-1: 3, 2: 1}), (0, 1, 0, 0): 1})
    b = algebra.XPoly.variable(nv, 1) - algebra.XPoly.variable(nv, 3) * algebra.p
    s = algebra.VSeries(3, [algebra.XPoly.constant(nv, 1), a, b, a * b])
    out = tmp_path / "images.txt"
    rc = cli.run(["--out", str(out), "images"])
    return [
        spherical.omega_hl((2, 1, 0), 3),
        spherical.omega_cosets((2, 1, 0), 3, 2),
        series.p_numerator(2, 10),
        series.express_in_generators(series.hecke_image(series.T1_P2 * series.T_P), 3),
        a * b,
        (a * b).div_exact(b),
        a.substitute({0: b, 1: 2, 2: a, 3: 1}),
        s * s.recip(),
        rc,
        out.read_text(),
    ]


def test_wrappers_leave_results_unchanged(tmp_path):
    _clear_caches()
    plain = _library_results(tmp_path)
    originals = (algebra.XPoly.__dict__["__mul__"], series.hecke_image, cli.run, cli._emit, cli.json)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert series.hecke_image is not originals[1]
        _clear_caches()
        traced = _library_results(tmp_path)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (algebra.XPoly.__dict__["__mul__"], series.hecke_image, cli.run, cli._emit, cli.json) == originals
    assert algebra.XPoly.__dict__["__rmul__"] is originals[0]
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"algebra.xpoly_mul", "spherical.omega_hl", "series.solve", "cli.run", "render"} <= names
    layers = tracing.layer_metrics(tracer)
    assert set(layers) == set(tracing.PER_LAYER) - {"trace.overhead_s"}
    assert layers["series.solve.unknowns"] > 0 and layers["algebra.laurent_mul.calls"] > 0
    assert layers["render.bytes"] == len(plain[-1].encode())


def test_json_rendering_is_in_the_render_layer(tmp_path):
    out = tmp_path / "theorem2.json"
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert cli.run(["--format", "json", "--out", str(out), "theorem2"]) == 0
    finally:
        tracer.uninstall()
    assert out.read_bytes() == (workloads.REFERENCE_DIR / "theorem2.json").read_bytes()
    render = [s for s in tracer.spans if s[tracing.NAME] == "render"]
    assert len(render) > 9  # QCoefficients.to_json, nine HeckeExpr.to_json, dumps, _emit
    assert tracing.layer_metrics(tracer)["render.bytes"] == out.stat().st_size


def test_counters_repeat_is_null_with_one_traced_child():
    layers = {name: 1.0 for name in tracing.PER_LAYER if name != "trace.overhead_s"}
    one = {"wall_s": 2.0, "layers": layers}
    _, repeat = run.per_layer([{"wall_s": 1.0}], [one])
    assert repeat is None
    _, repeat = run.per_layer([{"wall_s": 1.0}], [one, one])
    assert repeat is True


# -- inputs and BENCHMARK.json ------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_inputs(workload):
    first = json.dumps(workloads.generate(workload, 11), sort_keys=True)
    assert json.dumps(workloads.generate(workload, 11), sort_keys=True) == first
    other = json.dumps(workloads.generate(workload, 12), sort_keys=True)
    assert (other == first) == (workload == "genus3-cli")


def test_generated_operands_are_the_library_s_own():
    from heckeseries.golden import golden_order

    assert workloads.GOLDEN == golden_order()
    weights = sorted(w for w, _ in workloads.solved_systems())
    assert weights == [0, 1, 2, 2, 3, 3, 4, 4, 5, 6]
    for weight, _ in workloads.solved_systems():
        assert sorted(map(tuple, workloads.generator_monomials(weight))) == sorted(
            series.generator_monomials(weight)
        )


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
