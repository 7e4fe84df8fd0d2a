"""Try-on fidelity metric: distances, scoring, extractors, IO."""

import math
from functools import partial

import numpy as np
import pytest

from helpers import (
    clamp_per_channel,
    fresh,
    random_mask,
    rect_mask,
    vtid_score_scene_images,
    warp_scene_per_channel,
)
from tryonlab import (
    BinaryMask,
    Grid,
    GridError,
    RandomStream,
    SceneImage,
    VtidError,
    VtidReport,
    composite_reference,
    gen_scene,
    grid_write,
    perceptual_l2,
    pixel_extractor,
    random_feature_extractor,
    random_spec,
    scene_read,
    scene_write,
    vtid_score,
    warp_scene,
)


def rand_scene(seed: int, h: int = 12, w: int = 10) -> SceneImage:
    rng = RandomStream(seed).child("img")
    return SceneImage(rng.uniforms(3 * h * w).reshape(3, h, w))


@pytest.fixture(scope="module")
def sample():
    rng = RandomStream(77).child("scene")
    return gen_scene(rng, random_spec(rng, 24, 20))


class TestSceneImage:
    def test_clamps_out_of_range_channels(self):
        img = SceneImage.gray(Grid([[-0.5, 0.3], [1.5, 1.0]]))
        for ch in img.stack():
            assert np.array_equal(ch, [[0.0, 0.3], [1.0, 1.0]])

    def test_in_range_channels_kept_verbatim(self):
        g = Grid([[0.25, 0.75]])
        img = SceneImage.gray(g)
        for ch in img.stack():
            assert ch.tobytes() == g.a.tobytes()

    def test_rejects_channel_shape_mismatch(self):
        # one (3, h, w) array cannot hold channels of differing shapes;
        # what is left to reject is an empty channel
        with pytest.raises(VtidError):
            SceneImage(np.zeros((3, 0, 4)))
        with pytest.raises(VtidError):
            SceneImage(np.zeros((3, 4, 0)))

    def test_stack_roundtrip(self):
        img = rand_scene(0)
        back = SceneImage(img.stack())
        assert back == img

    def test_from_stack_rejects_wrong_shape(self):
        with pytest.raises(VtidError):
            SceneImage(np.zeros((2, 4, 4)))

    def test_from_stack_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            stack = np.zeros((3, 2, 2))
            stack[1, 0, 1] = bad
            with pytest.raises(GridError, match="non-finite"):
                SceneImage(stack)

    @pytest.mark.parametrize("seed", range(8))
    def test_from_stack_clamps_like_the_per_channel_clamp(self, seed):
        rng = RandomStream(seed).child("clamp")
        stack = 1.6 * rng.uniforms(3 * 5 * 4).reshape(3, 5, 4) - 0.3
        stack[seed % 3] = np.clip(stack[seed % 3], 0.0, 1.0)  # one in-range channel
        stack[:, 0, 0] = -0.0  # kept bit for bit, signed zero included
        want = clamp_per_channel(stack)
        got = SceneImage(stack).stack()
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[:, 0, 0]).all()

    def test_immutable(self):
        img = rand_scene(1)
        with pytest.raises(AttributeError):
            img.r = Grid(np.zeros((12, 10)))
        with pytest.raises(ValueError):
            img.stack()[0, 0, 0] = 0.5


class TestPerceptualL2:
    @pytest.mark.parametrize("fx_name", ["pixel", "random"])
    def test_zero_on_identical_inputs(self, fx_name):
        fx = pixel_extractor() if fx_name == "pixel" else random_feature_extractor(1, 2, 3)
        img = rand_scene(7)
        assert perceptual_l2(img, img, fx) == 0.0

    def test_symmetric(self):
        a, b = rand_scene(8), rand_scene(9)
        for fx in (pixel_extractor(), random_feature_extractor(2, 2, 3)):
            assert perceptual_l2(a, b, fx) == perceptual_l2(b, a, fx)

    def test_unit_offset_under_identity_features(self):
        a = SceneImage.gray(Grid(np.zeros((6, 6))))
        b = SceneImage.gray(Grid.full(6, 6, 1.0))
        assert perceptual_l2(a, b, pixel_extractor()) == 1.0

    def test_pixel_extractor_is_rms_distance(self):
        a, b = rand_scene(10), rand_scene(11)
        want = math.sqrt(
            sum(
                float(((ca - cb) ** 2).mean())
                for ca, cb in zip(a.stack(), b.stack())
            )
            / 3.0
        )
        assert perceptual_l2(a, b, pixel_extractor()) == want

    def test_non_negative_on_corpus(self):
        fx = random_feature_extractor(3, 2, 3)
        imgs = [rand_scene(s) for s in range(6)]
        for a in imgs:
            for b in imgs:
                assert perceptual_l2(a, b, fx) >= 0.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(VtidError):
            perceptual_l2(rand_scene(12), rand_scene(12, 8, 8), pixel_extractor())


class TestVtidScore:
    def test_perfect_tryon_scores_zero(self, sample):
        for fx, bound in ((pixel_extractor(), 0.0), (random_feature_extractor(4, 2, 3), 1e-6)):
            report = vtid_score(
                person=sample.person,
                garment=sample.garment,
                flow_x=sample.flow_x,
                flow_y=sample.flow_y,
                generated=sample.reference,
                clothing_mask=sample.mask,
                gen_clothing_mask=sample.mask,
                fx=fx,
            )
            assert report.human_dist <= bound
            assert report.clothing_dist <= bound
            assert report.vtid <= bound

    def test_generated_person_matches_hand_computation(self):
        person = rand_scene(13)
        garment = rand_scene(14)
        mask = rect_mask(12, 10, 2, 2, 4, 5)
        zero = Grid(np.zeros((12, 10)))
        report = vtid_score(
            person=person,
            garment=garment,
            flow_x=zero,
            flow_y=zero,
            generated=person,
            clothing_mask=mask,
            gen_clothing_mask=mask,
            fx=pixel_extractor(),
        )
        assert report.human_dist == 0.0
        total = 0.0
        for gc, pc in zip(garment.stack(), person.stack()):
            d = gc * mask.a - pc * mask.a
            total += float((d * d).mean())
        assert report.clothing_dist == math.sqrt(total / 3.0)

    def test_report_combination_rule(self):
        assert VtidReport(0.3, 0.2).vtid == 0.5
        assert VtidReport(0.0, 0.0).vtid == 0.0

    def test_noise_increases_score(self, sample):
        rng = RandomStream(15).child("noise")
        scores = []
        for sigma in (0.05, 0.15, 0.3):
            noisy = SceneImage(
                np.clip(
                    sample.reference.stack()
                    + sigma * rng.normals(3 * 24 * 20).reshape(3, 24, 20),
                    0.0,
                    1.0,
                )
            )
            report = vtid_score(
                person=sample.person,
                garment=sample.garment,
                flow_x=sample.flow_x,
                flow_y=sample.flow_y,
                generated=noisy,
                clothing_mask=sample.mask,
                gen_clothing_mask=sample.mask,
                fx=pixel_extractor(),
            )
            scores.append(report.vtid)
        assert scores[0] < scores[1] < scores[2]

    def test_rejects_shape_mismatch(self, sample):
        with pytest.raises(VtidError):
            vtid_score(
                person=sample.person,
                garment=rand_scene(16),
                flow_x=sample.flow_x,
                flow_y=sample.flow_y,
                generated=sample.reference,
                clothing_mask=sample.mask,
                gen_clothing_mask=sample.mask,
                fx=pixel_extractor(),
            )


class TestRandomFeatureExtractor:
    def test_same_seed_identical_features(self):
        img = rand_scene(17).stack()
        fa = random_feature_extractor(5, 2, 3).features(img)
        fb = random_feature_extractor(5, 2, 3).features(img)
        # 3 maps at each of 2 scales, one stack per scale
        assert [len(s) for s in fa] == [len(s) for s in fb] == [3, 3]
        for a, b in zip(fa, fb):
            assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        img = rand_scene(18).stack()
        fa = random_feature_extractor(5, 1, 3).features(img)
        fb = random_feature_extractor(6, 1, 3).features(img)
        assert not np.array_equal(fa[0][0], fb[0][0])

    def test_scales_halve_resolution(self):
        stacks = random_feature_extractor(7, 3, 2).features(rand_scene(19, 16, 12).stack())
        assert [s.shape for s in stacks] == [(2, 16, 12), (2, 8, 6), (2, 4, 3)]

    def test_odd_dims_crop_before_pooling(self):
        stacks = random_feature_extractor(7, 2, 2).features(rand_scene(20, 9, 7).stack())
        assert [s.shape for s in stacks] == [(2, 9, 7), (2, 4, 3)]

    def test_pixel_extractor_is_the_image_itself(self):
        img = rand_scene(24).stack()
        (stack,) = pixel_extractor().features(img)
        assert stack.shape == (3, 12, 10)
        assert stack.tobytes() == img.tobytes()

    def test_rejects_bad_parameters(self):
        with pytest.raises(VtidError):
            random_feature_extractor(0, 0, 3)
        with pytest.raises(VtidError):
            random_feature_extractor(0, 2, 0)

    def test_rejects_image_too_small_for_scales(self):
        fx = random_feature_extractor(8, 3, 2)
        with pytest.raises(VtidError):
            fx.features(rand_scene(21, 2, 2).stack())

    def test_distinct_images_have_positive_pairwise_distance(self):
        """Random features separate a corpus of 100 distinct images.

        Features are computed once per image; pairwise distances reuse a
        flattening that weights each map by 1 / sqrt(n_maps * map size), whose
        Euclidean norm equals the root-mean-over-maps MSE combination.
        """
        fx = random_feature_extractor(9, 2, 3)
        imgs = [rand_scene(s, 16, 16) for s in range(100)]
        vecs = []
        for img in imgs:
            maps = [m for stack in fx.features(img.stack()) for m in stack]
            n = len(maps)
            vecs.append(
                np.concatenate([m.ravel() / math.sqrt(n * m.size) for m in maps])
            )
        check = np.linalg.norm(vecs[0] - vecs[1])
        assert perceptual_l2(imgs[0], imgs[1], fx) == pytest.approx(check, rel=1e-12)
        mat = np.stack(vecs)
        sq = ((mat[:, None, :] - mat[None, :, :]) ** 2).sum(axis=2)
        off_diag = sq[~np.eye(len(imgs), dtype=bool)]
        assert off_diag.min() > 1e-12


class TestSceneIO:
    def test_roundtrip_bit_exact(self, sample, tmp_path):
        path = tmp_path / "scene.f64grid"
        scene_write(path, sample.person)
        back = scene_read(path)
        assert back == sample.person
        assert back.stack().tobytes() == sample.person.stack().tobytes()

    def test_stacked_layout_is_plain_grid(self, sample, tmp_path):
        from tryonlab import grid_read

        path = tmp_path / "scene.f64grid"
        scene_write(path, sample.person)
        grid = grid_read(path)
        assert grid.shape == (3 * 24, 20)
        assert np.array_equal(grid.a[:24], sample.person.stack()[0])

    def test_rejects_height_not_divisible_by_three(self, tmp_path):
        path = tmp_path / "bad.f64grid"
        grid_write(path, Grid(np.zeros((4, 5))))
        with pytest.raises(GridError, match="not divisible by 3"):
            scene_read(path)

    def test_reads_without_a_grid_and_equals_the_grid_path(self, tmp_path, monkeypatch):
        import tryonlab.grids as grids
        from tryonlab import grid_read

        # out-of-range values and a -0.0, so that the clamp has work to do
        values = RandomStream(23).normals(3 * 6 * 5).reshape(3 * 6, 5)
        values[0, 0] = -0.0
        path = tmp_path / "scene.f64grid"
        grid_write(path, Grid(values))
        want = SceneImage(grid_read(path).a.reshape(3, 6, 5)).stack().tobytes()
        built = []
        grid_init = grids.Grid.__init__
        monkeypatch.setattr(
            grids.Grid, "__init__", lambda obj, v: (built.append(1), grid_init(obj, v))[1]
        )
        got = scene_read(path)
        assert built == []
        assert got.stack().tobytes() == want

    def test_rejects_a_non_finite_payload(self, tmp_path):
        import struct

        path = tmp_path / "nan.f64grid"
        payload = np.zeros((6, 4))
        payload[4, 1] = np.nan
        path.write_bytes(struct.pack("<4sII", b"F64G", 6, 4) + payload.astype("<f8").tobytes())
        with pytest.raises(GridError, match="non-finite"):
            scene_read(path)

    def test_rejects_a_truncated_file(self, tmp_path):
        from tryonlab import GridFormatError

        path = tmp_path / "short.f64grid"
        grid_write(path, Grid(np.zeros((6, 4))))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(GridFormatError, match="truncated payload"):
            scene_read(path)


class TestWarpScene:
    def test_zero_flow_identity(self):
        img = rand_scene(22)
        zero = Grid(np.zeros((12, 10)))
        out = warp_scene(img, zero, zero)
        assert out == img

    def test_constant_shift_moves_content(self):
        base = np.zeros((6, 6))
        base[2, 2] = 1.0
        img = SceneImage.gray(Grid(base))
        out = warp_scene(img, Grid.full(6, 6, 1.0), Grid(np.zeros((6, 6))))
        # destination (2, 1) reads from source (2, 2)
        assert out.stack()[0][2, 1] == 1.0
        assert out.stack()[0][2, 2] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_one_pass_equals_per_channel_warps(self, seed):
        rng = RandomStream(seed).child("flow")
        img = rand_scene(40 + seed)
        # flows of up to two canvas sizes each way send sources past every border
        fx = Grid(40.0 * rng.uniforms(120).reshape(12, 10) - 20.0)
        fy = Grid(48.0 * rng.uniforms(120).reshape(12, 10) - 24.0)
        ii, jj = np.indices((12, 10))
        assert ((ii + fy.a) < 0).any() and ((ii + fy.a) > 11).any()
        assert ((jj + fx.a) < 0).any() and ((jj + fx.a) > 9).any()
        got = warp_scene(img, fx, fy)
        want = warp_scene_per_channel(img, fx, fy)
        assert got.stack().tobytes() == want.stack().tobytes()
        # equal values must also give equal features: the convolutions sum
        # in memory order, so the warped stack must be laid out like any other
        extractor = random_feature_extractor(seed, 2, 3)
        for a, b in zip(extractor.features(got.stack()), extractor.features(want.stack())):
            assert a.tobytes() == b.tobytes()

    def test_rejects_flow_shape_mismatch(self):
        with pytest.raises(GridError):
            warp_scene(rand_scene(23), Grid(np.zeros((12, 9))), Grid(np.zeros((12, 10))))


def corrupted_case(seed: int, h: int, w: int) -> dict:
    """vtid_score's keyword inputs: the generated image is the person plus
    seeded noise of a seeded level, clamped, and its mask differs from the
    person's. At 48x36 the person, garment, flows and mask are a generated
    scene; at other sizes they are seeded random arrays, with flows of up
    to two canvas sizes each way."""
    rng = RandomStream(seed).child("case")
    if (h, w) == (48, 36):
        sample = gen_scene(rng, random_spec(rng, h, w))
        person, garment = sample.person, sample.garment
        flow_x, flow_y, mask = sample.flow_x, sample.flow_y, sample.mask
    else:
        person, garment = rand_scene(100 + seed, h, w), rand_scene(200 + seed, h, w)
        flow_x = Grid(4.0 * w * rng.uniforms(h * w).reshape(h, w) - 2.0 * w)
        flow_y = Grid(4.0 * h * rng.uniforms(h * w).reshape(h, w) - 2.0 * h)
        mask = random_mask(rng, h, w)
    level = (0.01, 0.03, 0.1, 0.3)[seed % 4]
    noise = rng.normals(3 * h * w).reshape(3, h, w)
    return dict(
        person=person,
        garment=garment,
        flow_x=flow_x,
        flow_y=flow_y,
        generated=SceneImage(np.clip(person.stack() + level * noise, 0.0, 1.0)),
        clothing_mask=mask,
        gen_clothing_mask=random_mask(rng, h, w, p=0.3),
    )


def gray_latent_case(seed: int) -> dict:
    """A 48x36 scene scored against a gray latent with values far outside
    [0, 1], as the sampler's try-on proxy metric scores its final latents."""
    rng = RandomStream(seed).child("latent")
    sample = gen_scene(rng, random_spec(rng, 48, 36))
    latent = Grid(3.0 * rng.normals(48 * 36).reshape(48, 36))
    assert latent.a.min() < 0.0 and latent.a.max() > 1.0
    return dict(
        person=sample.person,
        garment=sample.garment,
        flow_x=sample.flow_x,
        flow_y=sample.flow_y,
        generated=SceneImage.gray(latent),
        clothing_mask=sample.mask,
        gen_clothing_mask=sample.mask,
    )


EXTRACTORS = {
    "pixel": pixel_extractor,
    "random": lambda: random_feature_extractor(0, 2, 8),
}
CASES = [
    *(pytest.param(partial(corrupted_case, s, 48, 36), id=f"corrupt-48x36-{s}") for s in range(4)),
    *(pytest.param(partial(corrupted_case, s, 9, 7), id=f"corrupt-9x7-{s}") for s in range(4)),
    *(pytest.param(partial(gray_latent_case, s), id=f"gray-{s}") for s in range(2)),
]


class TestArrayPass:
    """vtid_score as one array pass against the scene-image path it replaced."""

    @pytest.mark.parametrize("fx_name", sorted(EXTRACTORS))
    @pytest.mark.parametrize("make", CASES)
    def test_bit_equal_to_scene_image_path(self, make, fx_name):
        case = make()
        fx = EXTRACTORS[fx_name]()
        got = vtid_score(**case, fx=fx)
        want = vtid_score_scene_images(**case, fx=fx)
        assert got.human_dist.hex() == want.human_dist.hex()
        assert got.clothing_dist.hex() == want.clothing_dist.hex()
        assert got.human_dist > 0.0 and got.clothing_dist > 0.0

    def test_builds_no_scene_image_or_grid(self, monkeypatch):
        case = corrupted_case(3, 48, 36)
        before = {k: v.stack().tobytes() if isinstance(v, SceneImage) else v.a.tobytes()
                  for k, v in case.items()}
        built = []
        for cls in (SceneImage, Grid):
            init = cls.__init__

            def counted(obj, *args, _init=init, _name=cls.__name__, **kwargs):
                built.append(_name)
                _init(obj, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        for fx in EXTRACTORS.values():
            vtid_score(**case, fx=fx())
        assert built == []
        for k, v in case.items():
            after = v.stack().tobytes() if isinstance(v, SceneImage) else v.a.tobytes()
            assert after == before[k], k

    def test_mask_shape_checks_kept(self):
        case = corrupted_case(0, 48, 36)
        for field in ("clothing_mask", "gen_clothing_mask"):
            bad = dict(case, **{field: BinaryMask(np.zeros((48, 35)))})
            with pytest.raises(VtidError, match="mask shape"):
                vtid_score(**bad, fx=pixel_extractor())


class CountingExtractor:
    """Wraps an extractor, logging each features call to a shared list."""

    def __init__(self, fx, log: list):
        self.fx = fx
        self.log = log

    def features(self, stack):
        self.log.append(self)
        return self.fx.features(stack)


# vtid_score's reference inputs: its memo keys on these and on fx
REFERENCE_INPUTS = ("person", "garment", "flow_x", "flow_y", "clothing_mask", "gen_clothing_mask")


def generations(case: dict, n: int, seed: int) -> list[SceneImage]:
    """n generated images for one case: its own and seeded corruptions of it."""
    rng = RandomStream(seed).child("generations")
    base = case["generated"].stack()
    return [case["generated"]] + [
        SceneImage(base + 0.05 * rng.normals(base.size).reshape(base.shape)) for _ in range(n - 1)
    ]


class TestReferenceReuse:
    """vtid_score computes the reference side once for calls that share it."""

    @pytest.mark.parametrize("fx_name", sorted(EXTRACTORS))
    def test_shared_references_score_as_fresh_copies(self, fx_name):
        fx = EXTRACTORS[fx_name]()
        a, b = corrupted_case(0, 48, 36), gray_latent_case(1)
        # runs of calls on one case, a switch, and a return to the first
        calls = [(a, g) for g in generations(a, 3, 0)]
        calls += [(b, g) for g in generations(b, 2, 1)]
        calls += [(a, g) for g in generations(a, 2, 2)]
        for case, generated in calls:
            got = vtid_score(**dict(case, generated=generated), fx=fx)
            copies = {k: fresh(v) for k, v in case.items()}
            alone = vtid_score(**dict(copies, generated=fresh(generated)), fx=fx)
            want = vtid_score_scene_images(**dict(copies, generated=generated), fx=fx)
            for r in (alone, want):
                assert got.human_dist.hex() == r.human_dist.hex()
                assert got.clothing_dist.hex() == r.clothing_dist.hex()

    def test_a_hit_extracts_only_the_generated_side(self):
        case = corrupted_case(1, 48, 36)
        log = []
        fx = CountingExtractor(random_feature_extractor(0, 2, 8), log)
        counts = []
        for generated in generations(case, 3, 3):
            vtid_score(**dict(case, generated=generated), fx=fx)
            counts.append(len(log))
        assert counts == [4, 6, 8]

    @pytest.mark.parametrize("part", REFERENCE_INPUTS + ("fx",))
    def test_any_changed_key_part_is_a_miss(self, part):
        case, other = corrupted_case(2, 48, 36), corrupted_case(3, 48, 36)
        log = []
        fx = CountingExtractor(random_feature_extractor(0, 2, 8), log)
        vtid_score(**case, fx=fx)
        assert len(log) == 4
        changed = dict(case, fx=fx)
        if part == "fx":
            changed["fx"] = CountingExtractor(random_feature_extractor(5, 2, 8), log)
        else:
            changed[part] = other[part]
        got = vtid_score(**changed)
        assert len(log) == 8
        want = vtid_score_scene_images(**changed)
        assert got.human_dist.hex() == want.human_dist.hex()
        assert got.clothing_dist.hex() == want.clothing_dist.hex()

    def test_shape_checks_run_on_a_hit(self):
        case = corrupted_case(0, 48, 36)
        fx = pixel_extractor()
        vtid_score(**case, fx=fx)
        # generated is no part of the key: the call would be a hit
        for generated in (SceneImage(np.zeros((3, 48, 35))), SceneImage(np.zeros((3, 47, 36)))):
            with pytest.raises(VtidError, match="image shapes differ"):
                vtid_score(**dict(case, generated=generated), fx=fx)
