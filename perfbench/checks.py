"""Output checks of the four workloads.

Each check compares an output with an independent computation or with a
property the method must have, never with a stored copy of an earlier
output. Every check raises CheckError with a message naming what is
wrong; the tests in ``perfbench/tests`` feed each one a deliberately
wrong input.

The reference computations here (hinge sum, feature convolution,
softplus, bilinear warp, grid-file reader) are written apart from
tryonlab on purpose: only the seeded kernel bank is taken from it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

REL_TOL = 1e-12

# The fixed ablation grids, restated here rather than imported, so a
# change to the program's grids shows as a failed check.
SWEEP_GRIDS = {
    "scale_factor": ("rho", (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)),
    "guidance": ("guidance_scale", (1.0, 1.5, 2.0, 2.5, 3.0, 5.0)),
    "layers": ("layers", ("both", "full_only", "half_only")),
}
# Sweep rows that must be bit-equal to an arm of the paired run.
SWEEP_ROWS_EQUAL_TO_ARM = (
    ("scale_factor", 0.0, "baseline"),
    ("scale_factor", 0.2, "csc"),
    ("guidance", 2.0, "csc"),
    ("layers", "both", "csc"),
)
SWEEP_TO_SUMMARY = {
    "mean_final_e_attract": "final_e_attract",
    "mean_final_in_mask_fraction_full": "final_in_mask_fraction_full",
    "mean_final_in_mask_fraction_half": "final_in_mask_fraction_half",
}
NUMERIC_COLUMNS = (
    "e_total", "e_attract", "e_repel",
    "in_mask_fraction_full", "in_mask_fraction_half", "grad_norm",
)


class CheckError(AssertionError):
    """A workload output failed its check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    """|a - b| <= rel * max(|a|, |b|); exact equality for zeros."""
    return abs(a - b) <= rel * max(abs(a), abs(b))


# -- generic ----------------------------------------------------------------


def tree_digest(root) -> str:
    """SHA-256 over the relative paths and bytes of every file under root."""
    root = Path(root)
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode("utf-8") + b"\0")
            h.update(p.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- paired runs ------------------------------------------------------------


def check_trajectory_rows(rows: list[dict], trials: int, steps: int, lam: float) -> None:
    """Order, finiteness, grad_norm by arm, and e_total = e_attract + lam * e_repel."""
    _require(len(rows) == 2 * trials * steps,
             f"{len(rows)} trajectory rows, expected {2 * trials * steps}")
    expected_keys = [(str(i), arm, str(k)) for i in range(trials)
                     for arm in ("baseline", "csc") for k in range(steps)]
    got_keys = [(r["trial"], r["arm"], r["step"]) for r in rows]
    _require(got_keys == expected_keys, "trajectory rows are not in trial/arm/step order")
    for n, r in enumerate(rows):
        where = _where(n, r)
        vals = {c: float(r[c]) for c in NUMERIC_COLUMNS}
        _require(all(math.isfinite(v) for v in vals.values()), f"{where}: non-finite value")
        if r["arm"] == "baseline":
            _require(vals["grad_norm"] == 0.0, f"{where}: baseline grad_norm is not 0")
        else:
            _require(vals["grad_norm"] > 0.0, f"{where}: csc grad_norm is not above 0")
        total = vals["e_attract"] + lam * vals["e_repel"]
        _require(close(vals["e_total"], total),
                 f"{where}: e_total {vals['e_total']!r} != e_attract + lam * e_repel {total!r}")


def check_energies_from_fractions(rows: list[dict], eps_den: float) -> None:
    """e_attract and outer-branch e_repel recomputed from each row's in-mask fractions.

    With a map that sums to 1, a layer with in-mask mass f has attract
    (1 - f) / max(f, eps) and outer repel -f; the row holds their means
    over the two layers. Inner-branch layers have no closed form in f;
    a row with one must come from a full mask (check_inner_rows).
    """
    for n, r in enumerate(rows):
        where = _where(n, r)
        branches = r["branch"].split("|")
        _require(len(branches) == 2 and set(branches) <= {"inner", "outer"},
                 f"{where}: unexpected branch label {r['branch']!r}")
        fracs = (float(r["in_mask_fraction_full"]), float(r["in_mask_fraction_half"]))
        attract = sum((1.0 - f) / max(f, eps_den) for f in fracs) / 2
        _require(close(float(r["e_attract"]), attract),
                 f"{where}: e_attract {r['e_attract']} != {attract!r} from its fractions")
        if branches == ["outer", "outer"]:
            repel = -(fracs[0] + fracs[1]) / 2
            _require(close(float(r["e_repel"]), repel),
                     f"{where}: e_repel {r['e_repel']} != {repel!r} from its fractions")


def _where(n: int, r: dict) -> str:
    return f"row {n} (trial {r['trial']}, {r['arm']}, step {r['step']})"


def check_summary_direction(summary: dict) -> None:
    """The correction raises in-mask mass and lowers the attract energy on average."""
    delta = summary["delta"]
    _require(delta["final_in_mask_fraction_full"] > 0.0,
             f"summary: in-mask fraction delta {delta['final_in_mask_fraction_full']!r} <= 0")
    _require(delta["final_e_attract"] < 0.0,
             f"summary: e_attract delta {delta['final_e_attract']!r} >= 0")


# -- full-mask runs -----------------------------------------------------------


def check_inner_rows(rows: list[dict]) -> None:
    """Full canvas mask: every layer on the inner branch, attract exactly 0, fractions 1."""
    for n, r in enumerate(rows):
        where = _where(n, r)
        _require(r["branch"] == "inner|inner", f"{where}: branch {r['branch']!r} is not inner|inner")
        _require(float(r["e_attract"]) == 0.0, f"{where}: e_attract {r['e_attract']} is not 0")
        for col in ("in_mask_fraction_full", "in_mask_fraction_half"):
            _require(abs(float(r[col]) - 1.0) <= REL_TOL, f"{where}: {col} {r[col]} is not 1")


def hinge_mean(values: np.ndarray, delta: float) -> float:
    """Mean over ordered distinct pairs of max(0, delta - |a_p - a_q|), divided by n.

    Sorted-order pairwise sum: each unordered pair once, doubled.
    """
    s = np.sort(np.asarray(values, dtype=np.float64).ravel())
    n = s.size
    rows = []
    for i in range(n - 1):
        h = delta - (s[i + 1:] - s[i])
        rows.append(float(h[h > 0.0].sum()))
    return 2.0 * math.fsum(rows) / n if n > 1 else 0.0


def inner_repel_of_call(maps, masks, tau: float, delta: float) -> float:
    """Repel term of one energy evaluation whose layers are all on the inner branch."""
    values = []
    for a, m in zip(maps, masks):
        sel = (a > tau * a.max()) & (m > 0.0)
        values.append(hinge_mean(a[sel], delta))
    return sum(values) / len(values)


def check_recorded_repel(rows: list[dict], recomputed: dict) -> None:
    """Recorded e_repel equals the hinge recomputed from the captured maps.

    ``recomputed`` maps (trial, arm) to the per-step values of that
    trajectory, in step order.
    """
    seen = 0
    for n, r in enumerate(rows):
        key = (int(r["trial"]), r["arm"])
        _require(key in recomputed, f"row {n}: no captured energy evaluations for {key}")
        want = recomputed[key][int(r["step"])]
        got = float(r["e_repel"])
        _require(close(got, want),
                 f"row {n} (trial {key[0]}, {key[1]}, step {r['step']}): "
                 f"e_repel {got!r} != recomputed hinge {want!r}")
        seen += 1
    _require(seen > 0, "no rows to check")


# -- ablation pipeline --------------------------------------------------------


def check_zero_vtid(doc: dict) -> None:
    """Ground-truth composites score exactly 0, each sample and the mean."""
    _require(doc["mean"]["vtid"] == 0.0, f"mean vtid of ground truth is {doc['mean']['vtid']!r}")
    for s in doc["samples"]:
        _require(s["vtid"] == 0.0, f"sample {s['index']}: ground-truth vtid {s['vtid']!r}")


def check_sweeps(sweeps: dict[str, list[dict]], summary: dict) -> None:
    """Exact grids in order, and the rows that must be bit-equal to a run arm."""
    for kind, (column, grid) in SWEEP_GRIDS.items():
        rows = sweeps[kind]
        got = tuple(r[column] if kind == "layers" else float(r[column]) for r in rows)
        _require(got == grid, f"sweep {kind}: grid {got} != {grid}")
    for kind, value, arm in SWEEP_ROWS_EQUAL_TO_ARM:
        column = SWEEP_GRIDS[kind][0]
        row = next(r for r in sweeps[kind]
                   if (r[column] if kind == "layers" else float(r[column])) == value)
        for sweep_col, summary_key in SWEEP_TO_SUMMARY.items():
            got = float(row[sweep_col])
            want = summary["arms"][arm][summary_key]
            _require(got.hex() == float(want).hex(),
                     f"sweep {kind}={value}: {sweep_col} {got!r} is not bit-equal to the "
                     f"{arm} arm's {summary_key} {want!r}")


# -- VTID scoring -------------------------------------------------------------


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""

    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(v.size)
        i = 0
        while i < v.size:
            j = i
            while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
                j += 1
            r[order[i:j + 1]] = (i + j) / 2.0
            i = j + 1
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))


def check_vtid_levels(doc: dict, levels: list[float], min_rho: float = 0.9) -> None:
    """Level 0 scores exactly 0, corrupted samples score above 0, scores rise with level."""
    scores = [s["vtid"] for s in doc["samples"]]
    _require(len(scores) == len(levels), f"{len(scores)} scores for {len(levels)} samples")
    for i, (level, score) in enumerate(zip(levels, scores)):
        if level == 0.0:
            _require(score == 0.0, f"sample {i}: uncorrupted composite scores {score!r}")
        else:
            _require(score > 0.0, f"sample {i}: corrupted composite (level {level}) scores {score!r}")
    rho = spearman(levels, scores)
    _require(rho >= min_rho, f"Spearman({rho:.4f}) of score against corruption level < {min_rho}")


def read_f64grid(path) -> np.ndarray:
    """Own reader of the grid format: 'F64G', u32 h, u32 w, h*w little-endian f64."""
    raw = Path(path).read_bytes()
    magic, h, w = struct.unpack_from("<4sII", raw)
    _require(magic == b"F64G" and len(raw) == 12 + 8 * h * w, f"{path}: not a grid file")
    return np.frombuffer(raw, dtype="<f8", offset=12).reshape(h, w).astype(np.float64)


def read_scene(path) -> np.ndarray:
    """(3, h, w) channels of a scene stored stacked vertically, clamped to [0, 1]."""
    g = read_f64grid(path)
    h = g.shape[0] // 3
    return np.clip(g.reshape(3, h, g.shape[1]), 0.0, 1.0)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _correlate(x: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """(K, h, w) input, (C, K, 3, 3) bank, zero padding -> (C, h, w), by shifted sums."""
    k, h, w = x.shape
    xp = np.zeros((k, h + 2, w + 2))
    xp[:, 1:-1, 1:-1] = x
    out = np.zeros((bank.shape[0], h, w))
    for di in range(3):
        for dj in range(3):
            shifted = xp[:, di:di + h, dj:dj + w]
            out += np.tensordot(bank[:, :, di, dj], shifted, axes=([1], [0]))
    return out


def _pool(x: np.ndarray) -> np.ndarray:
    h, w = x.shape[1] - x.shape[1] % 2, x.shape[2] - x.shape[2] % 2
    x = x[:, :h, :w]
    return (x[:, 0::2, 0::2] + x[:, 1::2, 0::2] + x[:, 0::2, 1::2] + x[:, 1::2, 1::2]) / 4.0


def _features(image: np.ndarray, banks) -> list[np.ndarray]:
    maps = []
    for s, bank in enumerate(banks):
        if s > 0:
            image = _pool(image)
        maps.extend(_softplus(_correlate(image, bank)))
    return maps


def _distance(a: np.ndarray, b: np.ndarray, banks) -> float:
    fa, fb = _features(a, banks), _features(b, banks)
    return math.sqrt(sum(float(((x - y) ** 2).mean()) for x, y in zip(fa, fb)) / len(fa))


def _warp(image: np.ndarray, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Bilinear sample of each channel at (i + fy, j + fx), clamped to the canvas."""
    _, h, w = image.shape
    out = np.empty_like(image)
    for i in range(h):
        for j in range(w):
            y = min(max(i + fy[i, j], 0.0), h - 1.0)
            x = min(max(j + fx[i, j], 0.0), w - 1.0)
            y0, x0 = int(math.floor(y)), int(math.floor(x))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            wy, wx = y - y0, x - x0
            top = image[:, y0, x0] * (1.0 - wx) + image[:, y0, x1] * wx
            bot = image[:, y1, x0] * (1.0 - wx) + image[:, y1, x1] * wx
            out[:, i, j] = top * (1.0 - wy) + bot * wy
    return out


def reference_vtid(person, garment, flow_x, flow_y, generated, mask, gen_mask, banks):
    """(human_dist, clothing_dist) of one sample, computed without tryonlab."""
    human = _distance(person * (1.0 - mask), generated * (1.0 - gen_mask), banks)
    warped = np.clip(_warp(garment, flow_x, flow_y), 0.0, 1.0)
    clothing = _distance(warped * gen_mask, generated * gen_mask, banks)
    return human, clothing


def check_vtid_recomputed(doc: dict, manifest_path, indices, banks) -> int:
    """Recompute the listed samples' scores apart from the program; returns the count."""
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path)
    root = manifest_path.parent

    def path(role, i):
        return root / manifest[role][i]

    for i in indices:
        human, clothing = reference_vtid(
            read_scene(path("person", i)), read_scene(path("garment", i)),
            read_f64grid(path("flow_x", i)), read_f64grid(path("flow_y", i)),
            read_scene(path("generated", i)), read_f64grid(path("mask", i)),
            read_f64grid(path("gen_mask", i)), banks,
        )
        got = doc["samples"][i]
        for name, want in (("human_dist", human), ("clothing_dist", clothing),
                           ("vtid", human + clothing)):
            _require(close(got[name], want),
                     f"sample {i}: {name} {got[name]!r} != recomputed {want!r}")
    return len(indices)
