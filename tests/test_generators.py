from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mongekit.errors import InvalidInput
from mongekit.generators import (
    GenSpec,
    SplitMix64,
    _child_rng,
    gen_ball_config,
    gen_menelaus_case,
    gen_rational_case,
    gen_vertex_config,
)
from mongekit.menelaus import menelaus_products
from mongekit.monge import run_monge
from mongekit.noneuclid import verify_prop2
from mongekit.shapes import Ball, VertexSet


def test_splitmix_reference_outputs():
    # first outputs of the reference implementation for seed 0
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_draws():
    r = SplitMix64(99)
    xs = [r.random() for _ in range(200)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert min(xs) < 0.2 and max(xs) > 0.8
    r = SplitMix64(99)
    assert [r.uniform(-3.0, 3.0) for _ in range(5)] == [-3.0 + 6.0 * x for x in xs[:5]]
    ints = [SplitMix64(7).randint(-2, 5) for _ in range(1)]
    assert -2 <= ints[0] <= 5
    r = SplitMix64(12)
    counts = {k: 0 for k in range(4)}
    for _ in range(400):
        counts[r.randint(0, 3)] += 1
    assert all(v > 50 for v in counts.values())
    items = list(range(10))
    a, b = list(items), list(items)
    SplitMix64(5).shuffle(a)
    SplitMix64(5).shuffle(b)
    assert a == b and sorted(a) == items and a != items


def test_child_stream_matches_walked_root():
    # the child seed is draw index+1 of the root stream, computed directly
    for seed in (0, 12345, 2**64 - 3):
        root = SplitMix64(seed)
        for index in range(65):
            child = SplitMix64(root.next_u64())
            got = _child_rng(seed, index)
            assert got.state == child.state
            assert got.next_u64() == child.next_u64()


def test_child_stream_draws_nothing_from_root(monkeypatch):
    calls = []
    original = SplitMix64.next_u64

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counting)
    _child_rng(7, 10**6)
    assert calls == []


def test_genspec_validation():
    ok = GenSpec(dimension=2, seed=1, kind="balls", ratio_gap=1.5)
    assert ok.geometry == "euclidean"
    with pytest.raises(InvalidInput):
        GenSpec(dimension=2, seed=1, kind="balls", ratio_gap=1.0)
    with pytest.raises(InvalidInput):
        GenSpec(dimension=2, seed=1, kind="edge_points", perturb=0.0)
    with pytest.raises(InvalidInput):
        GenSpec(dimension=2, seed=1, kind="edge_points", perturb=1.0)
    with pytest.raises(InvalidInput):
        GenSpec(dimension=2, seed=1, kind="balls", geometry="spherical")
    with pytest.raises(InvalidInput):
        GenSpec(dimension=1, seed=1, kind="balls")
    with pytest.raises(InvalidInput):
        GenSpec(dimension=2, seed=1, kind="cubes")
    with pytest.raises(InvalidInput):
        gen_ball_config(GenSpec(dimension=2, seed=1, kind="vertex_sets"))
    with pytest.raises(InvalidInput):
        gen_menelaus_case(GenSpec(dimension=2, seed=1, kind="edge_points"), positive=False)


def test_ball_config():
    spec = GenSpec(dimension=2, seed=1, kind="balls", ratio_gap=1.5)
    cfg = gen_ball_config(spec)
    assert len(cfg.shapes) == 3 and all(isinstance(s, Ball) for s in cfg.shapes)
    radii = [s.radius for s in cfg.shapes]
    assert radii[0] > radii[1] > radii[2]
    assert radii[0] / radii[1] == pytest.approx(1.5, rel=1e-14)
    report = run_monge(cfg)
    assert report.verdict
    assert gen_ball_config(spec) == cfg
    assert gen_ball_config(spec, index=1) != cfg


def test_vertex_config():
    spec = GenSpec(dimension=3, seed=9, kind="vertex_sets", ratio_gap=1.2)
    cfg = gen_vertex_config(spec)
    assert len(cfg.shapes) == 4 and all(isinstance(s, VertexSet) for s in cfg.shapes)
    counts = {len(s.vertices) for s in cfg.shapes}
    assert len(counts) == 1 and 4 <= counts.pop() <= 12
    assert run_monge(cfg).verdict
    assert gen_vertex_config(spec) == cfg


def test_menelaus_euclidean():
    spec = GenSpec(dimension=3, seed=7, kind="edge_points")
    eps = gen_menelaus_case(spec, positive=True)
    report = menelaus_products(eps)
    assert report.verdict
    assert max(report.triple_residuals.values()) <= 1e-12
    spec = GenSpec(dimension=3, seed=7, kind="edge_points", perturb=1e-2)
    neg = menelaus_products(gen_menelaus_case(spec, positive=False))
    assert not neg.verdict
    assert max(neg.triple_residuals.values()) >= 1e-4
    assert neg.hyperplane_residual >= 1e-4


def test_menelaus_xn():
    for geometry in ("spherical", "hyperbolic"):
        spec = GenSpec(dimension=3, seed=11, kind="edge_points",
                       geometry=geometry, perturb=1e-2)
        report = verify_prop2(gen_menelaus_case(spec, positive=True))
        assert report.verdict
        assert max(report.triple_residuals.values()) <= 1e-12
        assert not verify_prop2(gen_menelaus_case(spec, positive=False)).verdict
        again = gen_menelaus_case(spec, positive=True)
        assert again == gen_menelaus_case(spec, positive=True)


def test_rational_case():
    spec = GenSpec(dimension=2, seed=5, kind="edge_points", perturb=2e-2)
    eps = gen_rational_case(spec, positive=True)
    assert all(isinstance(x, Fraction) for v in eps.vertices for x in v)
    report = menelaus_products(eps)
    assert report.verdict
    assert report.hyperplane_residual == 0
    assert all(r == 0 for r in report.triple_residuals.values())
    assert not menelaus_products(gen_rational_case(spec, positive=False)).verdict
    assert gen_rational_case(spec, positive=True) == eps


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 4))
def test_generated_positives_always_verify(seed, n):
    spec = GenSpec(dimension=n, seed=seed, kind="edge_points", perturb=5e-3)
    assert menelaus_products(gen_menelaus_case(spec, positive=True)).verdict
    assert not menelaus_products(gen_menelaus_case(spec, positive=False)).verdict
