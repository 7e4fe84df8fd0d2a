"""Release acceptance gate: ten numbered end-to-end guarantees.

One test per criterion, named test_criterion_NN_*, so the verbose pytest
verdict is the pass/fail line for that criterion; each test additionally
prints one `criterion NN PASS` line with the measured numbers (shown
under -s, or automatically when a criterion fails).

Every expected value comes from an independent oracle computed here:
central finite differences, a literal brute-force branch enumeration,
the closed-form moment recursion of the reverse update, scipy's Spearman
correlation, and byte comparison of whole output trees. Criteria with a
stated time budget assert it via time.monotonic.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from helpers import (
    energy_of,
    fd_rel_err,
    fd_vjp_check,
    fd_scalar,
    hinge_safe,
    inner_case,
    point_metrics,
    random_mask,
    rect_mask,
    sample_seeded,
    softmax_map,
    support_raw,
)
from tryonlab import (
    BinaryMask,
    Condition,
    EnergyConfig,
    Grid,
    LinearGaussianModel,
    RandomStream,
    SamplerConfig,
    SceneImage,
    ancestral_step,
    cfg_mix,
    draw_noise,
    eps_to_score,
    gaussian_field,
    gen_dataset,
    gen_scene,
    make_schedule,
    perceptual_l2,
    pixel_extractor,
    random_feature_extractor,
    random_spec,
    sample_points,
    toy_init,
    vtid_score,
    write_dataset,
)
from tryonlab.cli import main as cli_main
from tryonlab.energy import BRANCH_INNER, BRANCH_OUTER, _layer_terms
from tryonlab.experiments import (
    FINAL_METRICS,
    GUIDANCE_GRID,
    LAYER_GRID,
    SCALE_GRID,
    load_dataset,
    paired_run,
    parse_config,
    run_summary,
    sweep_rows,
)


@pytest.fixture(scope="module")
def schedule20():
    return make_schedule(20, 0.05, 0.3)


@pytest.fixture(scope="module")
def toy16():
    return toy_init(7, 16, 12, 4)


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    """Paired benchmark at the toy model's 16x12 resolution, on disk."""
    root = tmp_path_factory.mktemp("bench")
    write_dataset(root, gen_dataset(seed=3, n=4, paired=True, h=16, w=12), "paired")
    return root


@pytest.fixture(scope="module")
def bench(bench_root):
    return load_dataset(bench_root / "manifest.json")


def test_criterion_01_energy_gradients_match_finite_differences():
    t0 = time.monotonic()
    cfg = EnergyConfig()
    h = 1e-6
    root = RandomStream(0xACC1)
    worst = {"attract": 0.0, "repel_outer": 0.0, "repel_inner": 0.0}
    outer_pairs = 0
    inner_checked = 0
    inner_skipped = 0

    # 50 generic pairs: attract at every point; these land on the outer
    # repel branch (support spills outside any random mask).
    for i in range(50):
        A = softmax_map(root.child(f"a-{i}"), 16, 12)
        M = random_mask(root.child(f"m-{i}"), 16, 12)
        ev = energy_of(A.a, M.a, cfg, True)
        ga, gr, branch = ev.grad_attract, ev.grad_repel, ev.branch
        outer_pairs += branch == "outer"
        for r in range(16):
            for c in range(12):
                fd = fd_scalar(lambda G: energy_of(G.a, M.a, cfg, False).e_attract, A, r, c, h)
                worst["attract"] = max(worst["attract"], fd_rel_err(ga[r, c], fd))
                if branch == "outer":
                    fd = fd_scalar(lambda G: energy_of(G.a, M.a, cfg, False).e_repel, A, r, c, h)
                    worst["repel_outer"] = max(worst["repel_outer"], fd_rel_err(gr[r, c], fd))
    assert outer_pairs >= 45

    # 50 pairs built so the support sits strictly inside the mask: inner
    # branch. Points whose pairwise distances sit within 10h of a hinge
    # kink are excluded (the subgradient there is one-sided).
    for i in range(50):
        A, M = inner_case(root.child(f"i-{i}"), 16, 12)
        ev = energy_of(A.a, M.a, cfg, True)
        assert ev.branch == "inner"
        gr = ev.grad_repel
        pts = support_raw(A.a, cfg.support_tau) & (M.a > 0)
        vals = A.a[pts]
        for k, (r, c) in enumerate(np.argwhere(pts)):
            if not hinge_safe(vals, k, cfg.delta, h):
                inner_skipped += 1
                continue
            fd = fd_scalar(lambda G: energy_of(G.a, M.a, cfg, False).e_repel, A, r, c, h)
            worst["repel_inner"] = max(worst["repel_inner"], fd_rel_err(gr[r, c], fd))
            inner_checked += 1
        for r, c in ((0, 0), (15, 11)):  # off-support: the energy is flat
            fd = fd_scalar(lambda G: energy_of(G.a, M.a, cfg, False).e_repel, A, r, c, h)
            worst["repel_inner"] = max(worst["repel_inner"], fd_rel_err(gr[r, c], fd))
    assert inner_checked >= 300

    elapsed = time.monotonic() - t0
    assert max(worst.values()) < 1e-5
    assert elapsed < 10.0
    print(
        f"criterion 01 PASS: max FD rel err attract={worst['attract']:.3e}, "
        f"outer={worst['repel_outer']:.3e}, inner={worst['repel_inner']:.3e} "
        f"(< 1e-5; {inner_checked} inner pts, {inner_skipped} near-kink skipped; "
        f"{elapsed:.2f}s < 10s)"
    )


def test_criterion_02_attract_energy_is_scale_invariant():
    root = RandomStream(0xACC2)
    worst = 0.0
    for i in range(25):
        A = softmax_map(root.child(f"a-{i}"), 16, 12)
        M = random_mask(root.child(f"m-{i}"), 16, 12)
        base = energy_of(A.a, M.a, EnergyConfig(), False).e_attract
        for c in (1e-3, 1.0, 1e3):
            assert float((c * A.a * M.a).sum()) >= 1e-6  # in-mask mass precondition
            scaled = energy_of(c * A.a, M.a, EnergyConfig(), False).e_attract
            worst = max(worst, abs(scaled - base) / abs(base))
    assert worst < 1e-12
    print(
        f"criterion 02 PASS: max rel deviation of e_attract under x1e-3/x1/x1e3 "
        f"rescaling = {worst:.3e} (< 1e-12, 25 pairs)"
    )


def test_criterion_03_repel_branch_matches_brute_force_enumeration():
    t0 = time.monotonic()
    cfg = EnergyConfig()
    patterns = [
        np.array([(bits >> k) & 1 for k in range(9)], dtype=np.float64).reshape(3, 3)
        for bits in range(512)
    ]
    # every A pattern as one (512, 3, 3) stack, item i being pattern i
    stack = np.stack([Grid(p).a for p in patterns])
    masks = [BinaryMask(Grid(p.copy())) for p in patterns]
    supports = []
    for pa in patterns:
        a = pa.ravel()
        mx = a.max()
        supports.append([k for k in range(9) if a[k] > cfg.support_tau * mx])
    checked = 0
    for M, pm in zip(masks, patterns):
        m = pm.ravel().tolist()
        inner = _layer_terms("test", stack, M.a, [cfg] * len(patterns), False).inner
        for pa, sup, on in zip(patterns, supports, inner):
            want = "inner" if sup and all(m[k] == 1.0 for k in sup) else "outer"
            got = BRANCH_INNER if on else BRANCH_OUTER
            assert got == want, f"A={pa.ravel().tolist()} M={m}: got {got}, want {want}"
            checked += 1
    assert checked == 512 * 512
    print(
        f"criterion 03 PASS: all {checked} 3x3 (A, M) patterns pick the branch the "
        f"literal oracle picks ({time.monotonic() - t0:.2f}s)"
    )


def test_criterion_04_attention_vjp_matches_directional_differences(toy16):
    worst = 0.0
    root = RandomStream(0xACC4)
    for i in range(100):
        case = root.child(f"case-{i}")
        x = gaussian_field(case.child("x"), 16, 12)
        t = 1 + int(case.child("t").integers(1, 0, 20)[0])
        _, maps, _ = toy16.predict(x, t, Condition.GARMENT)
        cotangents = [
            case.child(f"cot-{k}").normals(a.size).reshape(a.shape)
            for k, a in enumerate(maps.values())
        ]
        err = fd_vjp_check(
            toy16, x, t, Condition.GARMENT, cotangents, h=1e-5, rng=case.child("dirs")
        )
        worst = max(worst, err)
    # the same check on 3-item stacks, each direction spanning all items
    worst_stack = 0.0
    for i in range(10):
        case = root.child(f"stack-{i}")
        x = np.stack([gaussian_field(case.child(f"x-{j}"), 16, 12) for j in range(3)])
        t = 1 + int(case.child("t").integers(1, 0, 20)[0])
        _, maps, _ = toy16.predict(x, t, Condition.GARMENT)
        cotangents = [
            case.child(f"cot-{k}").normals(a.size).reshape(a.shape)
            for k, a in enumerate(maps.values())
        ]
        err = fd_vjp_check(
            toy16, x, t, Condition.GARMENT, cotangents, h=1e-5, rng=case.child("dirs")
        )
        worst_stack = max(worst_stack, err)
    assert worst < 1e-5
    assert worst_stack < 1e-5
    print(
        f"criterion 04 PASS: max VJP directional-FD rel err over 100 trials "
        f"(16x12, C=4, 32 directions each) = {worst:.3e}, and over 10 3-item stacks "
        f"= {worst_stack:.3e} (< 1e-5)"
    )


def test_criterion_05_baseline_sampler_matches_closed_form_moments():
    t0 = time.monotonic()
    T, N, hw = 50, 10_000, 64
    sched = make_schedule(T, 0.02, 0.2)
    model = LinearGaussianModel(mu0=0.5, sigma0=1.0, schedule=sched)
    cfg = SamplerConfig(rho=0.0, steps=T)
    mask = rect_mask(8, 8, 2, 2, 4, 4)
    seed = 31337

    # Closed-form moments of the reverse recursion itself. With sigma0=1
    # the prediction denominator is 1, so each step is the affine map
    # x <- (1 - beta/2) x + beta sqrt(abar_t) mu0 (+ sqrt(beta) noise for
    # t > 1), and mean/variance follow the same recursion exactly.
    m_ref, v_ref = 0.0, 1.0
    for t in range(T, 0, -1):
        beta = sched.beta_at(t)
        coef = 1.0 - 0.5 * beta
        m_ref = coef * m_ref + beta * math.sqrt(sched.alpha_bar_at(t)) * 0.5
        v_ref = coef * coef * v_ref + (beta if t > 1 else 0.0)

    # (a) the sampling loop is exactly the composition of its public
    # pieces: 32 runs, bit-compared against a hand-rolled loop.
    sampled = []
    for i in range(32):
        x_s, _ = sample_seeded(
            model, mask, cfg, sched, RandomStream(seed).child(f"traj-{i}")
        )
        r2 = RandomStream(seed).child(f"traj-{i}")
        x = gaussian_field(r2, 8, 8)
        for t in range(T, 0, -1):
            eps_u, _, _ = model.predict(x, t, Condition.NULL)
            eps_c, _, _ = model.predict(x, t, Condition.GARMENT)
            eps = cfg_mix(eps_u, eps_c, cfg.guidance_scale)
            z = gaussian_field(r2, 8, 8) if t > 1 else None
            x = ancestral_step(x, t, eps_to_score(eps, t, sched), sched, z)
        assert x.tobytes() == x_s.a.tobytes()
        sampled.append(x_s.a.tobytes())

    # (b) 10^4 trajectories, reproducing the sampler's arithmetic and
    # draw order but vectorized across trajectories (verified bit-exact
    # against all 32 runs above). A trajectory draws T normal blocks of hw
    # values, the initial field and T - 1 noise fields, and normals(hw) is
    # Box-Muller on the next 2 hw words (u1 words, then u2 words), so one
    # words(2 hw T) call reshaped to (T, 2, hw) holds every block's pair.
    finals = np.empty((N, hw))
    plan = [(t, sched.beta_at(t), sched.alpha_bar_at(t)) for t in range(T, 0, -1)]
    chunk = 1000
    for start in range(0, N, chunk):
        c = min(chunk, N - start)
        blocks = np.empty((c, T, hw))
        for j in range(c):
            r = RandomStream(seed).child(f"traj-{start + j}")
            w = r.words(2 * hw * T).reshape(T, 2, hw)
            u1 = ((w[:, 0] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
            u2 = (w[:, 1] >> np.uint64(11)).astype(np.float64) * 2.0**-53
            blocks[j] = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        x = blocks[:, 0]
        for k, (t, beta, ab) in enumerate(plan):
            denom = ab * 1.0 ** 2 + 1.0 - ab
            eps = (x - math.sqrt(ab) * 0.5) * (math.sqrt(1.0 - ab) / denom)
            eps = eps + cfg.guidance_scale * (eps - eps)
            score = eps * (-1.0 / math.sqrt(1.0 - ab))
            x = (1.0 + 0.5 * beta) * x + beta * score
            if t > 1:
                x = x + math.sqrt(beta) * blocks[:, k + 1]
        finals[start : start + c] = x
    assert [row.tobytes() for row in finals[:32]] == sampled

    grand_mean = float(finals.mean())
    sigma_hat = float(finals.std(ddof=1))
    mean_bound = 4.0 * sigma_hat / math.sqrt(N)
    mean_dev = abs(grand_mean - 0.5)
    ref_dev = abs(grand_mean - m_ref)
    pixel_var = finals.var(axis=0, ddof=1)
    var_dev = float(np.abs(pixel_var - v_ref).max() / v_ref)
    elapsed = time.monotonic() - t0
    assert mean_dev < mean_bound
    assert ref_dev < mean_bound
    assert var_dev < 0.05
    assert elapsed < 60.0
    print(
        f"criterion 05 PASS: |mean - 0.5| = {mean_dev:.4f} and |mean - closed-form "
        f"{m_ref:.4f}| = {ref_dev:.4f} ({ref_dev / (mean_bound / 4):.2f} standard errors), "
        f"both < 4*sigma/sqrt(N) = {mean_bound:.4f}; worst per-pixel variance "
        f"deviation {100 * var_dev:.2f}% of {v_ref:.6f} (< 5%); {elapsed:.1f}s < 60s"
    )


def test_criterion_06_zero_strength_correction_is_bit_identical(toy16, schedule20):
    """The rho = 0 item of a stack whose other items take the correction
    (so the stack computes energy gradients and the VJP) equals a rho = 0
    run alone, which computes neither."""
    mask = rect_mask(16, 12, 4, 3, 8, 5)
    zero = SamplerConfig(rho=0.0)
    stack = [SamplerConfig(rho=0.2), zero, SamplerConfig(rho=1.0)]
    for s in range(16):
        x_off, rec_off = sample_seeded(toy16, mask, zero, schedule20, RandomStream(s).child("run"))
        noise = draw_noise(RandomStream(s).child("run"), mask, zero, schedule20)
        points = sample_points(toy16, [mask] * 3, stack, schedule20, [noise] * 3)
        x_on, rec_on = points[1]
        assert x_on.a.tobytes() == x_off.a.tobytes()
        assert rec_on.csv_rows() == rec_off.csv_rows()
        assert {row[-1] for row in rec_on.csv_rows()} == {"0.0"}  # grad_norm
        assert rec_on.final == rec_off.final
        assert all(e.grad_norm > 0.0 for _, rec in points[::2] for e in rec.entries)
    print(
        "criterion 06 PASS: the rho=0 item of a corrected 3-item stack is bit-identical "
        "to a rho=0 run alone over 16 seeded runs (final latents, every CSV row with "
        "grad_norm 0, final stats)"
    )


def test_criterion_07_correction_directionally_improves_attention(
    toy16, schedule20, bench, bench_root, tmp_path
):
    cfg = parse_config(
        {
            "model": {"seed": 7, "h": 16, "w": 12, "channels": 4},
            "schedule": {"T": 20, "beta_1": 0.05, "beta_T": 0.3},
            "sampler": {"rho": 0.2, "guidance_scale": 2.0, "steps": 20},
            "energy": {"lam": 0.01, "delta": 0.02},
            "dataset": str(bench_root / "manifest.json"),
            "trials": 64,
            "seed": 1000,
        }
    )
    csc, base = paired_run(toy16, schedule20, cfg.sampler, bench, cfg.trials, cfg.seed)
    summary = run_summary(csc, base, cfg)
    out = tmp_path / "summary.json"
    out.write_text(json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    doc = json.loads(out.read_text(encoding="utf-8"))

    frac_csc = doc["arms"]["csc"]["final_in_mask_fraction_full"]
    frac_base = doc["arms"]["baseline"]["final_in_mask_fraction_full"]
    attract_csc = doc["arms"]["csc"]["final_e_attract"]
    attract_base = doc["arms"]["baseline"]["final_e_attract"]
    assert doc["trials"] == 64
    assert frac_csc > frac_base
    assert attract_csc < attract_base
    for metric in FINAL_METRICS:
        assert math.isfinite(doc["effect_size"][metric])
    print(
        f"criterion 07 PASS: 64 paired runs at default strengths; in-mask fraction "
        f"{frac_csc:.5f} > {frac_base:.5f} (d={doc['effect_size']['final_in_mask_fraction_full']:.2f}), "
        f"e_attract {attract_csc:.4f} < {attract_base:.4f} "
        f"(d={doc['effect_size']['final_e_attract']:.2f}); effect sizes in summary.json"
    )


def test_criterion_08_sweeps_emit_exact_grids_and_zero_matches_baseline(toy16, bench):
    sched = make_schedule(8, 0.05, 0.3)
    samp = SamplerConfig(steps=6)
    rows_scale = sweep_rows(["scale_factor"], toy16, sched, samp, bench, 3, 42)["scale_factor"]
    assert tuple(r["rho"] for r in rows_scale) == SCALE_GRID
    rows_guid = sweep_rows(["guidance"], toy16, sched, samp, bench, 3, 42)["guidance"]
    assert tuple(r["guidance_scale"] for r in rows_guid) == GUIDANCE_GRID
    rows_layers = sweep_rows(["layers"], toy16, sched, samp, bench, 3, 42)["layers"]
    assert tuple(r["layers"] for r in rows_layers) == LAYER_GRID

    baseline = point_metrics(
        toy16, sched, replace(samp, rho=0.0), bench, 3, 42
    )
    zero_row = dict(rows_scale[0])
    assert zero_row.pop("rho") == 0.0
    assert set(zero_row) == set(baseline)
    for key, value in zero_row.items():
        assert value.hex() == baseline[key].hex(), key  # bit precision, not approx
    print(
        "criterion 08 PASS: scale/guidance/layer sweeps emit exactly "
        f"{SCALE_GRID} / {GUIDANCE_GRID} / {LAYER_GRID}; rho=0 row bit-equal to the "
        "baseline row on all metric columns"
    )


def test_criterion_09_vtid_identity_monotonicity_and_pseudometric(bench):
    t0 = time.monotonic()
    fx_pixel = pixel_extractor()
    fx_rand = random_feature_extractor(0, 2, 8)

    for s in bench:  # ground-truth composites score exactly zero
        for fx in (fx_pixel, fx_rand):
            rep = vtid_score(
                person=s.person, garment=s.garment, flow_x=s.flow_x, flow_y=s.flow_y,
                generated=s.generated, clothing_mask=s.mask,
                gen_clothing_mask=s.gen_mask, fx=fx,
            )
            assert rep.vtid == 0.0

    # corruption level vs score: Spearman over 10 levels x 20 seeds
    ch = RandomStream(0xACC9).child("scene")
    scene = gen_scene(ch, random_spec(ch, 32, 24))
    stack = scene.generated.stack()
    noise_root = RandomStream(0xACC9).child("noise")
    levels, scores = [], []
    for si, sig in enumerate((0.01, 0.02, 0.04, 0.06, 0.09, 0.12, 0.16, 0.2, 0.25, 0.3)):
        for rep_i in range(20):
            z = noise_root.child(f"z-{si}-{rep_i}").normals(stack.size).reshape(stack.shape)
            gen = SceneImage(np.clip(stack + sig * z, 0.0, 1.0))
            report = vtid_score(
                person=scene.person, garment=scene.garment, flow_x=scene.flow_x,
                flow_y=scene.flow_y, generated=gen, clothing_mask=scene.mask,
                gen_clothing_mask=scene.mask, fx=fx_rand,
            )
            levels.append(sig)
            scores.append(report.vtid)
    rho_s = float(stats.spearmanr(levels, scores).statistic)
    assert rho_s > 0.9

    corpus = [img for s in bench for img in (s.person, s.garment, s.generated)]
    for fx in (fx_pixel, fx_rand):
        for i, a in enumerate(corpus):
            assert perceptual_l2(a, a, fx) == 0.0
            for b in corpus[i + 1 :]:
                d_ab = perceptual_l2(a, b, fx)
                assert d_ab >= 0.0
                assert d_ab == perceptual_l2(b, a, fx)

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        f"criterion 09 PASS: self-score 0 on all composites (both extractors); "
        f"Spearman(corruption, score) = {rho_s:.4f} > 0.9 (200 runs); perceptual_l2 "
        f"symmetric and >= 0 over {len(corpus)} corpus images; {elapsed:.1f}s < 30s"
    )


def test_criterion_10_cli_outputs_byte_identical_across_invocations(tmp_path, bench_root):
    gen_args = ["gen", "--seed", "11", "--n", "3", "--height", "16", "--width", "12"]
    assert cli_main(gen_args + ["--out", str(tmp_path / "g1")]) == 0
    assert cli_main(gen_args + ["--out", str(tmp_path / "g2")]) == 0
    tree1 = {
        p.relative_to(tmp_path / "g1"): p.read_bytes()
        for p in sorted((tmp_path / "g1").rglob("*")) if p.is_file()
    }
    tree2 = {
        p.relative_to(tmp_path / "g2"): p.read_bytes()
        for p in sorted((tmp_path / "g2").rglob("*")) if p.is_file()
    }
    assert tree1 and tree1 == tree2

    out = tmp_path / "run-out"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "model": {"seed": 3, "h": 16, "w": 12, "channels": 3},
                "schedule": {"T": 8, "beta_1": 0.05, "beta_T": 0.3},
                "sampler": {"steps": 5},
                "dataset": str(bench_root / "manifest.json"),
                "trials": 3,
                "seed": 5,
                "out": str(out),
            }
        ),
        encoding="utf-8",
    )
    snapshots = []
    for _ in range(2):
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        snapshots.append(
            {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
        )
    assert {"trajectories.csv", "summary.json"} <= set(snapshots[0])
    assert snapshots[0] == snapshots[1]
    print(
        f"criterion 10 PASS: gen trees ({len(tree1)} files) and run outputs "
        f"({sorted(snapshots[0])}) byte-identical across invocations"
    )
