"""Synthetic try-on scenes: patterns, geometry, flows, datasets, storage."""

import json

import numpy as np
import pytest

from tryonlab import (
    BinaryMask,
    Grid,
    RandomStream,
    Rect,
    SceneError,
    SceneSpec,
    affine_flow,
    composite_reference,
    gen_dataset,
    gen_scene,
    mask_read,
    random_spec,
    scene_read,
    warp_scene,
    write_dataset,
)
from tryonlab.grids import grid_read
from tryonlab.scenes import DATASET_ROLES, PATTERN_KINDS, region_mask, render_garment
from tryonlab.vtid import SceneImage


def make_spec(pattern: str = "solid", period: int = 4) -> SceneSpec:
    return SceneSpec(
        canvas_h=16,
        canvas_w=12,
        body_center=(8.0, 6.0),
        body_radii=(6.0, 4.0),
        croi=Rect(3, 3, 6, 5),
        garment_rect=Rect(4, 2, 8, 6),
        pattern=pattern,
        color_a=(0.2, 0.3, 0.4),
        color_b=(0.8, 0.7, 0.6),
        period=period,
    )


class TestRect:
    def test_edges(self):
        r = Rect(2, 3, 4, 5)
        assert (r.bottom, r.right) == (6, 8)
        assert r.inside(6, 8)
        assert not r.strictly_inside(6, 8)
        assert r.strictly_inside(7, 9)

    @pytest.mark.parametrize("bad", [(0, 0, 0, 1), (0, 0, 1, 0), (0, 0, -1, 2)])
    def test_rejects_degenerate(self, bad):
        with pytest.raises(SceneError):
            Rect(*bad)


class TestSceneSpecValidation:
    def test_valid_spec_constructs(self):
        make_spec()

    def test_rejects_croi_touching_border(self):
        with pytest.raises(SceneError, match="not strictly inside"):
            SceneSpec(
                canvas_h=16,
                canvas_w=12,
                body_center=(8.0, 6.0),
                body_radii=(6.0, 4.0),
                croi=Rect(0, 3, 6, 5),
                garment_rect=Rect(4, 2, 8, 6),
                pattern="solid",
                color_a=(0.2, 0.3, 0.4),
                color_b=(0.8, 0.7, 0.6),
                period=4,
            )

    def test_rejects_garment_outside_canvas(self):
        with pytest.raises(SceneError, match="outside canvas"):
            SceneSpec(
                canvas_h=16,
                canvas_w=12,
                body_center=(8.0, 6.0),
                body_radii=(6.0, 4.0),
                croi=Rect(3, 3, 6, 5),
                garment_rect=Rect(10, 2, 8, 6),
                pattern="solid",
                color_a=(0.2, 0.3, 0.4),
                color_b=(0.8, 0.7, 0.6),
                period=4,
            )

    def test_rejects_unknown_pattern(self):
        with pytest.raises(SceneError, match="unknown pattern"):
            make_spec(pattern="plaid")

    def test_rejects_tiny_period(self):
        with pytest.raises(SceneError, match="period"):
            make_spec(period=1)


class TestPatterns:
    def test_solid_garment_is_constant_inside_rect(self):
        g = render_garment(make_spec("solid"))
        r = make_spec().garment_rect
        patch = g.stack()[0][r.top : r.bottom, r.left : r.right]
        assert np.array_equal(patch, np.full((8, 6), 0.2))

    def test_gray_outside_rect(self):
        g = render_garment(make_spec("solid"))
        r = make_spec().garment_rect
        outside = np.ones((16, 12), dtype=bool)
        outside[r.top : r.bottom, r.left : r.right] = False
        for ch in g.stack():
            assert np.array_equal(ch[outside], np.full(outside.sum(), 0.5))

    def test_stripes_alternate_every_half_period(self):
        spec = make_spec("stripes", period=4)
        g = render_garment(spec)
        r = spec.garment_rect
        want_rows = [0.2, 0.2, 0.8, 0.8, 0.2, 0.2, 0.8, 0.8]  # cell = period // 2
        for i, want in enumerate(want_rows):
            row = g.stack()[0][r.top + i, r.left : r.right]
            assert np.array_equal(row, np.full(6, want))

    def test_checker_alternates_in_both_axes(self):
        spec = make_spec("checker", period=4)
        g = render_garment(spec)
        r = spec.garment_rect
        yy, xx = np.meshgrid(np.arange(r.height), np.arange(r.width), indexing="ij")
        pick = (yy // 2 + xx // 2) % 2
        want = np.where(pick == 0, 0.2, 0.8)
        assert np.array_equal(g.stack()[0][r.top : r.bottom, r.left : r.right], want)

    def test_logo_blob_center_disc(self):
        spec = make_spec("logo_blob")
        g = render_garment(spec)
        r = spec.garment_rect
        center = (r.top + (r.height - 1) // 2, r.left + (r.width - 1) // 2)
        assert g.stack()[0][center] == 0.8  # second color inside the disc
        assert g.stack()[0][r.top, r.left] == 0.2  # corner keeps the base color

    def test_all_patterns_render(self):
        for pattern in PATTERN_KINDS:
            img = render_garment(make_spec(pattern))
            assert img.shape == (16, 12)


class TestRegionMaskAndFlow:
    def test_region_mask_marks_croi_exactly(self):
        spec = make_spec()
        m = region_mask(spec)
        want = np.zeros((16, 12))
        want[3:9, 3:8] = 1.0
        assert np.array_equal(m.a, want)

    def test_flow_maps_region_corners_to_rect_corners(self):
        croi = Rect(3, 3, 6, 5)
        rect = Rect(4, 2, 8, 6)
        fx, fy = affine_flow(croi, rect, 16, 12)
        assert fy.a[3, 3] == rect.top - croi.top
        assert fx.a[3, 3] == rect.left - croi.left
        assert fy.a[8, 7] == (rect.bottom - 1) - (croi.bottom - 1)
        assert fx.a[8, 7] == (rect.right - 1) - (croi.right - 1)

    def test_flow_zero_outside_region(self):
        croi = Rect(3, 3, 6, 5)
        fx, fy = affine_flow(croi, Rect(4, 2, 8, 6), 16, 12)
        inside = np.zeros((16, 12), dtype=bool)
        inside[3:9, 3:8] = True
        assert not fx.a[~inside].any()
        assert not fy.a[~inside].any()

    def test_degenerate_single_column_region(self):
        croi = Rect(3, 3, 6, 1)
        fx, _ = affine_flow(croi, Rect(4, 2, 8, 6), 16, 12)
        # every region pixel reads from the rectangle's left edge
        assert np.array_equal(fx.a[3:9, 3], np.full(6, 2.0 - 3.0))

    def test_warp_carries_garment_onto_region(self):
        spec = make_spec("solid")
        fx, fy = affine_flow(spec.croi, spec.garment_rect, 16, 12)
        warped = warp_scene(render_garment(spec), fx, fy)
        patch = warped.stack()[0][3:9, 3:8]
        assert np.allclose(patch, 0.2, rtol=0, atol=1e-12)


class TestCompositeReference:
    def test_zero_mask_returns_person(self):
        spec = make_spec()
        rng = RandomStream(1).child("s")
        s = gen_scene(rng, spec)
        zero = Grid(np.zeros((16, 12)))
        out = composite_reference(
            s.person, s.garment, BinaryMask(np.zeros((16, 12))), zero, zero
        )
        assert out.stack().tobytes() == s.person.stack().tobytes()

    def test_full_mask_zero_flow_returns_garment(self):
        spec = make_spec()
        s = gen_scene(RandomStream(2).child("s"), spec)
        zero = Grid(np.zeros((16, 12)))
        out = composite_reference(s.person, s.garment, BinaryMask(np.ones((16, 12))), zero, zero)
        assert out.stack().tobytes() == s.garment.stack().tobytes()

    def test_matches_per_pixel_selection_for_all_box_masks(self):
        rng = RandomStream(3).child("s")
        person = SceneImage(rng.uniforms(3 * 64).reshape(3, 8, 8))
        garment = SceneImage(rng.uniforms(3 * 64).reshape(3, 8, 8))
        zero = Grid(np.zeros((8, 8)))
        for top in range(8):
            for height in range(1, 8 - top + 1):
                for left in range(8):
                    for width in range(1, 8 - left + 1):
                        m = np.zeros((8, 8))
                        m[top : top + height, left : left + width] = 1.0
                        got = composite_reference(
                            person, garment, BinaryMask(Grid(m)), zero, zero
                        )
                        sel = m.astype(bool)
                        for gc, pc, qc in zip(
                            got.stack(), person.stack(), garment.stack()
                        ):
                            assert np.array_equal(gc, np.where(sel, qc, pc))

    def test_respects_nonzero_flow(self):
        rng = RandomStream(4).child("s")
        person = SceneImage(rng.uniforms(3 * 64).reshape(3, 8, 8))
        garment = SceneImage(rng.uniforms(3 * 64).reshape(3, 8, 8))
        fx = Grid(rng.uniforms(64).reshape(8, 8) * 2.0 - 1.0)
        fy = Grid(rng.uniforms(64).reshape(8, 8) * 2.0 - 1.0)
        mask = BinaryMask(Grid(np.indices((8, 8)).sum(axis=0) % 2.0))
        got = composite_reference(person, garment, mask, fx, fy)
        warped = warp_scene(garment, fx, fy)
        sel = mask.a.astype(bool)
        for gc, pc, qc in zip(got.stack(), person.stack(), warped.stack()):
            assert np.array_equal(gc, np.where(sel, qc, pc))

    def test_rejects_shape_mismatches(self):
        s = gen_scene(RandomStream(5).child("s"), make_spec())
        zero = Grid(np.zeros((16, 12)))
        small = SceneImage.gray(Grid(np.zeros((8, 8))))
        with pytest.raises(SceneError):
            composite_reference(s.person, small, s.mask, zero, zero)
        with pytest.raises(SceneError):
            composite_reference(s.person, s.garment, BinaryMask(np.zeros((8, 8))), zero, zero)


class TestGenScene:
    def test_deterministic(self):
        a = gen_scene(RandomStream(6).child("s"), make_spec("checker"))
        b = gen_scene(RandomStream(6).child("s"), make_spec("checker"))
        assert a.person.stack().tobytes() == b.person.stack().tobytes()
        assert a.garment.stack().tobytes() == b.garment.stack().tobytes()

    def test_paired_reference_equals_person(self):
        s = gen_scene(RandomStream(7).child("s"), make_spec("stripes"))
        assert s.paired is True
        assert s.reference.stack().tobytes() == s.person.stack().tobytes()
        # gen_scene returns the person as the reference; compositing the
        # scene's garment onto it again must change no bit
        again = composite_reference(s.person, s.garment, s.mask, s.flow_x, s.flow_y)
        assert again.stack().tobytes() == s.person.stack().tobytes()

    def test_clothing_region_carries_warped_garment(self):
        spec = make_spec("solid")
        s = gen_scene(RandomStream(8).child("s"), spec)
        patch = s.person.stack()[0][3:9, 3:8]
        assert np.allclose(patch, 0.2, rtol=0, atol=1e-12)

    def test_background_differs_from_body(self):
        spec = make_spec()
        s = gen_scene(RandomStream(9).child("s"), spec)
        assert abs(s.person.stack()[0][0, 0] - 0.85) < 0.011  # background + noise
        assert s.person.stack()[0][12, 6] == 0.45  # inside the body ellipse


class TestRandomSpec:
    def test_rejects_tiny_canvas(self):
        with pytest.raises(SceneError):
            random_spec(RandomStream(0), 7, 36)
        with pytest.raises(SceneError):
            random_spec(RandomStream(0), 48, 7)

    def test_draws_valid_specs(self):
        for seed in range(20):
            spec = random_spec(RandomStream(seed).child("spec"))
            assert spec.croi.strictly_inside(48, 36)
            assert spec.garment_rect.inside(48, 36)
            assert spec.pattern in PATTERN_KINDS
            assert spec.period >= 2 and spec.period % 2 == 0

    def test_small_canvas_specs_valid(self):
        for seed in range(10):
            spec = random_spec(RandomStream(seed).child("spec"), 8, 8)
            assert spec.croi.strictly_inside(8, 8)
            assert spec.garment_rect.inside(8, 8)


class TestGenDataset:
    def test_paired_dataset(self):
        ds = gen_dataset(seed=10, n=3, paired=True, h=24, w=20)
        assert len(ds) == 3
        for s in ds:
            assert s.paired is True
            assert s.reference.stack().tobytes() == s.person.stack().tobytes()

    def test_unpaired_takes_next_scenes_garment(self):
        paired = gen_dataset(seed=11, n=3, paired=True, h=24, w=20)
        unpaired = gen_dataset(seed=11, n=3, paired=False, h=24, w=20)
        for i in range(3):
            j = (i + 1) % 3
            assert not unpaired[i].paired
            assert (
                unpaired[i].garment.stack().tobytes()
                == paired[j].garment.stack().tobytes()
            )
            assert (
                unpaired[i].person.stack().tobytes()
                == paired[i].person.stack().tobytes()
            )
            assert unpaired[i].mask == paired[i].mask

    def test_unpaired_reference_recomposes(self):
        ds = gen_dataset(seed=12, n=2, paired=False, h=24, w=20)
        for s in ds:
            want = composite_reference(s.person, s.garment, s.mask, s.flow_x, s.flow_y)
            assert s.reference.stack().tobytes() == want.stack().tobytes()

    def test_unpaired_needs_two_samples(self):
        with pytest.raises(SceneError, match="n >= 2"):
            gen_dataset(seed=13, n=1, paired=False)

    def test_rejects_empty(self):
        with pytest.raises(SceneError):
            gen_dataset(seed=13, n=0, paired=True)


class TestWriteDataset:
    def test_manifest_lists_every_file(self, tmp_path):
        ds = gen_dataset(seed=15, n=4, paired=True, h=16, w=16)
        manifest = write_dataset(tmp_path, ds, "train")
        assert manifest["n"] == 4
        assert manifest["split"] == "train"
        for role in DATASET_ROLES:
            assert len(manifest[role]) == 4
            for rel in manifest[role]:
                assert (tmp_path / rel).is_file()
        with open(tmp_path / "manifest.json", encoding="utf-8") as f:
            assert json.load(f) == manifest

    def test_files_roundtrip(self, tmp_path):
        ds = gen_dataset(seed=16, n=2, paired=True, h=16, w=16)
        manifest = write_dataset(tmp_path, ds, "val")
        person = scene_read(tmp_path / manifest["person"][0])
        assert person == ds[0].person
        mask = mask_read(tmp_path / manifest["mask"][0])
        assert mask == ds[0].mask
        gen_mask = mask_read(tmp_path / manifest["gen_mask"][0])
        assert gen_mask == ds[0].mask
        flow_x = grid_read(tmp_path / manifest["flow_x"][0])
        assert np.array_equal(flow_x.a, ds[0].flow_x.a)
        generated = scene_read(tmp_path / manifest["generated"][0])
        assert generated == ds[0].reference

    def test_byte_identical_across_runs(self, tmp_path):
        for sub in ("a", "b"):
            ds = gen_dataset(seed=17, n=3, paired=False, h=16, w=16)
            write_dataset(tmp_path / sub, ds, "train")
        files_a = sorted((tmp_path / "a").rglob("*"))
        files_b = sorted((tmp_path / "b").rglob("*"))
        rel_a = [p.relative_to(tmp_path / "a") for p in files_a]
        rel_b = [p.relative_to(tmp_path / "b") for p in files_b]
        assert rel_a == rel_b
        for pa, pb in zip(files_a, files_b):
            if pa.is_file():
                assert pa.read_bytes() == pb.read_bytes(), pa.name
