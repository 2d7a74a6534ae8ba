"""Synthetic instance generation, oracle costs, and instance file I/O.

Instances mimic a calibrated virtual camera observing a unit-scale
point cloud: points are drawn uniformly in a unit cube, the camera pose
combines uniform intrinsic Z-Y-X Euler angles with a bounded random
translation pushed back along the optical axis, points are projected to
a virtual image (out-of-frame points are redrawn), Gaussian pixel noise
is added, and an optional fraction of bearings is replaced by uniform
image points with no ground-truth partner.  Point order is shuffled so
the ground-truth correspondence is a nontrivial permutation.

The oracle cost matrix stands in for learned feature distances: zero on
ground-truth pairs and a constant elsewhere.  Running it through the
transport layer yields a correspondence probability matrix whose
concentration is controlled by the sharpness parameter.

Instance files are self-describing text documents with named sections;
floats are written with 17 significant digits so a save/load round trip
is bit-exact.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import InstanceFormatError, ValidationError
from .geometry import (Pose, bearings_to_pixels, check_pairs_in_range,
                       exp_so3, log_so3, make_intrinsics, pixels_to_bearings,
                       validate_one_to_one)
from .transport import TransportPlan, sinkhorn_forward

_FORMAT_HEADER = "blindpnp-instance v1"
EULER_CONVENTION = "zyx-intrinsic"


@dataclass(frozen=True)
class SynthConfig:
    n_points: int = 1000
    euler_max: float = np.pi / 4         # each angle uniform in [0, euler_max]
    translation_range: float = 0.5       # each component uniform in [-x, x]
    z_offset: float = 4.5
    image_width: int = 640
    image_height: int = 480
    focal: float = 800.0
    pixel_noise_sigma: float = 2.0
    outlier_fraction: float = 0.0
    seed: int = 0
    max_resample_rounds: int = 100

    def __post_init__(self):
        if self.n_points < 1:
            raise ValidationError("n_points must be at least 1")
        if self.pixel_noise_sigma < 0:
            raise ValidationError("pixel_noise_sigma must be nonnegative")
        if not (0.0 <= self.outlier_fraction < 1.0):
            raise ValidationError("outlier_fraction must lie in [0, 1)")

    def intrinsics(self) -> np.ndarray:
        return make_intrinsics(self.focal, self.image_width / 2.0,
                               self.image_height / 2.0)


@dataclass(frozen=True)
class PointSets:
    """A paired instance: bearings, points, and optional ground truth."""

    bearings: np.ndarray                  # (m, 3) unit rows
    points: np.ndarray                    # (n, 3)
    intrinsics: np.ndarray                # (3, 3)
    gt_pose: Pose | None = None
    gt_pairs: np.ndarray | None = None    # (k, 2) one-to-one
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        b = np.asarray(self.bearings, dtype=np.float64)
        p = np.asarray(self.points, dtype=np.float64)
        if b.ndim != 2 or b.shape[1] != 3 or b.shape[0] < 1:
            raise ValidationError(f"bearings must be (m, 3), got {b.shape}")
        if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] < 1:
            raise ValidationError(f"points must be (n, 3), got {p.shape}")
        object.__setattr__(self, "bearings", b)
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "intrinsics",
                           np.asarray(self.intrinsics, dtype=np.float64))
        if self.gt_pairs is not None:
            pairs = validate_one_to_one(self.gt_pairs)
            check_pairs_in_range(pairs, b.shape[0], p.shape[0], "gt pair")
            object.__setattr__(self, "gt_pairs", pairs)
        # keep metadata as plain strings so file round trips are exact
        object.__setattr__(
            self, "metadata",
            {str(k): str(v) for k, v in dict(self.metadata).items()})

    @property
    def m(self) -> int:
        return self.bearings.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[0]


def euler_zyx_to_matrix(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Intrinsic Z-Y-X Euler rotation: R = Rz(yaw) Ry(pitch) Rx(roll)."""
    Rz = exp_so3(np.array([0.0, 0.0, yaw]))
    Ry = exp_so3(np.array([0.0, pitch, 0.0]))
    Rx = exp_so3(np.array([roll, 0.0, 0.0]))
    return Rz @ Ry @ Rx


def generate_instance(config: SynthConfig) -> PointSets:
    """Deterministic synthetic instance for the given seed.

    Draw order is fixed (pose, points with per-point resampling, pixel
    noise, outlier replacement, final shuffle) so identical configs
    produce bit-identical instances.
    """
    rng = np.random.default_rng(config.seed)
    K = config.intrinsics()
    n = config.n_points

    yaw, pitch, roll = rng.uniform(0.0, config.euler_max, 3)
    R = euler_zyx_to_matrix(yaw, pitch, roll)
    t = rng.uniform(-config.translation_range, config.translation_range, 3)
    t = t + np.array([0.0, 0.0, config.z_offset])
    gt_pose = Pose(log_so3(R), t)

    w, h = float(config.image_width), float(config.image_height)
    points = np.zeros((n, 3))
    pixels = np.zeros((n, 2))
    todo = np.arange(n)
    for _ in range(config.max_resample_rounds):
        draw = rng.uniform(-0.5, 0.5, (todo.size, 3))
        q = draw @ R.T + t
        ok_depth = q[:, 2] > 1e-9
        uv = np.zeros((todo.size, 2))
        uv[ok_depth] = (q[ok_depth, :2] / q[ok_depth, 2:3]) * config.focal
        uv[ok_depth] += np.array([w / 2.0, h / 2.0])
        ok = ok_depth & (uv[:, 0] >= 0) & (uv[:, 0] < w) \
            & (uv[:, 1] >= 0) & (uv[:, 1] < h)
        points[todo[ok]] = draw[ok]
        pixels[todo[ok]] = uv[ok]
        todo = todo[~ok]
        if todo.size == 0:
            break
    if todo.size:
        raise ValidationError(
            f"could not place {todo.size} points inside the image after "
            f"{config.max_resample_rounds} resampling rounds; the sampled "
            "pose sees too little of the cloud")

    pixels = pixels + rng.normal(0.0, 1.0, (n, 2)) * config.pixel_noise_sigma

    n_out = int(round(config.outlier_fraction * n))
    is_outlier = np.zeros(n, dtype=bool)
    if n_out > 0:
        out_idx = rng.choice(n, size=n_out, replace=False)
        is_outlier[out_idx] = True
        pixels[out_idx, 0] = rng.uniform(0.0, w, n_out)
        pixels[out_idx, 1] = rng.uniform(0.0, h, n_out)

    bearings = pixels_to_bearings(pixels, K)

    # shuffle the 3D point order so the true matching is a permutation
    perm = rng.permutation(n)
    points = points[perm]
    new_index = np.empty(n, dtype=np.int64)
    new_index[perm] = np.arange(n)
    keep = np.flatnonzero(~is_outlier)
    gt_pairs = np.stack([keep, new_index[keep]], axis=1)

    meta = {"seed": config.seed, "euler_convention": EULER_CONVENTION,
            "pixel_noise_sigma": config.pixel_noise_sigma,
            "outlier_fraction": config.outlier_fraction}
    return PointSets(bearings=bearings, points=points, intrinsics=K,
                     gt_pose=gt_pose, gt_pairs=gt_pairs, metadata=meta)


def oracle_cost(instance: PointSets, sharpness: float,
                noise_sigma: float = 0.0, seed: int = 0) -> np.ndarray:
    """Stand-in feature-distance matrix built from the ground truth.

    Zero on ground-truth pairs, `sharpness` elsewhere, with optional
    additive Gaussian noise.  Requires ground-truth pairs.
    """
    if instance.gt_pairs is None:
        raise ValidationError("oracle cost requires ground-truth pairs")
    M = np.full((instance.m, instance.n), float(sharpness))
    pairs = instance.gt_pairs
    M[pairs[:, 0], pairs[:, 1]] = 0.0
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        M = M + rng.normal(0.0, noise_sigma, M.shape)
    return M


def oracle_probability(instance: PointSets, sharpness: float,
                       noise_sigma: float = 0.0, seed: int = 0,
                       mu: float = 0.1) -> TransportPlan:
    """Correspondence probabilities from the oracle cost via the
    transport layer; concentrates on ground-truth pairs as sharpness
    grows."""
    M = oracle_cost(instance, sharpness, noise_sigma=noise_sigma, seed=seed)
    return sinkhorn_forward(M, mu=mu)


# ---------------------------------------------------------------------------
# instance file format


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_matrix(out, rows) -> None:
    for row in np.atleast_2d(rows):
        out.write(" ".join(_fmt(v) for v in row) + "\n")


def save_instance(instance: PointSets, path) -> None:
    """Write an instance as a named-section text document (bit-exact)."""
    out = io.StringIO()
    out.write(_FORMAT_HEADER + "\n")
    out.write("section metadata\n")
    out.write(f"m {instance.m}\n")
    out.write(f"n {instance.n}\n")
    for key in sorted(instance.metadata):
        out.write(f"{key} {instance.metadata[key]}\n")
    out.write("section intrinsics\n")
    _write_matrix(out, instance.intrinsics)
    out.write("section bearings\n")
    _write_matrix(out, instance.bearings)
    out.write("section points\n")
    _write_matrix(out, instance.points)
    if instance.gt_pose is not None:
        out.write("section gt_pose\n")
        _write_matrix(out, instance.gt_pose.r)
        _write_matrix(out, instance.gt_pose.t)
    if instance.gt_pairs is not None:
        out.write("section gt_pairs\n")
        out.write(f"{instance.gt_pairs.shape[0]}\n")
        for i, j in instance.gt_pairs:
            out.write(f"{i} {j}\n")
    out.write("end\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(out.getvalue())


class _LineReader:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next(self, context: str) -> str:
        if self.pos >= len(self.lines):
            raise InstanceFormatError(
                f"line {self.pos + 1}: file truncated while reading {context}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    @property
    def line_no(self) -> int:
        return self.pos


def _read_floats(reader: _LineReader, count: int, width: int,
                 section: str) -> np.ndarray:
    rows = np.empty((count, width))
    for i in range(count):
        line = reader.next(f"section {section}")
        parts = line.split()
        if len(parts) != width:
            raise InstanceFormatError(
                f"line {reader.line_no}: expected {width} values in section "
                f"{section}, got {len(parts)}")
        try:
            rows[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise InstanceFormatError(
                f"line {reader.line_no}: bad number in section {section}: {exc}"
            ) from exc
    return rows


def load_instance(path) -> PointSets:
    """Parse an instance file; raises InstanceFormatError with the line
    and section on any malformed input, never returning a partial
    instance."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    reader = _LineReader(lines)
    header = reader.next("header")
    if header.strip() != _FORMAT_HEADER:
        raise InstanceFormatError(
            f"line 1: not a blindpnp instance file (header {header!r})")

    meta: dict = {}
    m = n = None
    intrinsics = bearings = points = None
    gt_pose = None
    gt_pairs = None
    ended = False

    line = reader.next("section header")
    while True:
        if line.strip() == "end":
            ended = True
            break
        if not line.startswith("section "):
            raise InstanceFormatError(
                f"line {reader.line_no}: expected a section header, got {line!r}")
        name = line.split(maxsplit=1)[1].strip()
        if name == "metadata":
            while True:
                line = reader.next("metadata")
                if line.startswith("section ") or line.strip() == "end":
                    break
                parts = line.split(maxsplit=1)
                if len(parts) != 2:
                    raise InstanceFormatError(
                        f"line {reader.line_no}: metadata entries are "
                        f"'key value', got {line!r}")
                key, value = parts
                if key == "m":
                    m = int(value)
                elif key == "n":
                    n = int(value)
                else:
                    meta[key] = value
            continue
        if name == "intrinsics":
            intrinsics = _read_floats(reader, 3, 3, name)
        elif name == "bearings":
            if m is None:
                raise InstanceFormatError(
                    f"line {reader.line_no}: bearings section before 'm' "
                    "metadata entry")
            bearings = _read_floats(reader, m, 3, name)
        elif name == "points":
            if n is None:
                raise InstanceFormatError(
                    f"line {reader.line_no}: points section before 'n' "
                    "metadata entry")
            points = _read_floats(reader, n, 3, name)
        elif name == "gt_pose":
            rows = _read_floats(reader, 2, 3, name)
            gt_pose = Pose(rows[0], rows[1])
        elif name == "gt_pairs":
            count_line = reader.next("gt_pairs count")
            try:
                count = int(count_line)
            except ValueError as exc:
                raise InstanceFormatError(
                    f"line {reader.line_no}: bad gt_pairs count: "
                    f"{count_line!r}") from exc
            pairs = np.empty((count, 2), dtype=np.int64)
            for i in range(count):
                parts = reader.next("gt_pairs").split()
                if len(parts) != 2:
                    raise InstanceFormatError(
                        f"line {reader.line_no}: gt_pairs rows are 'i j'")
                pairs[i] = [int(parts[0]), int(parts[1])]
            gt_pairs = pairs
        else:
            raise InstanceFormatError(
                f"line {reader.line_no}: unknown section {name!r}")
        line = reader.next("section header")

    if not ended:
        raise InstanceFormatError("file truncated: missing 'end' line")
    for required, value in [("metadata (m, n)", m), ("metadata (m, n)", n),
                            ("intrinsics", intrinsics),
                            ("bearings", bearings), ("points", points)]:
        if value is None:
            raise InstanceFormatError(f"missing required section: {required}")
    return PointSets(bearings=bearings, points=points, intrinsics=intrinsics,
                     gt_pose=gt_pose, gt_pairs=gt_pairs, metadata=meta)


def pixel_residuals(instance: PointSets, pose: Pose) -> np.ndarray:
    """Per-pair pixel residuals of ground-truth pairs at a pose.

    Used to verify the noise model: for a generated instance these are
    the injected pixel perturbations (outlier pairs carry none).
    """
    if instance.gt_pairs is None:
        raise ValidationError("pixel residuals require ground-truth pairs")
    pairs = instance.gt_pairs
    observed = bearings_to_pixels(instance.bearings[pairs[:, 0]],
                                  instance.intrinsics)
    q = instance.points[pairs[:, 1]] @ pose.matrix().T + pose.t
    predicted = bearings_to_pixels(q / np.linalg.norm(q, axis=1, keepdims=True),
                                   instance.intrinsics)
    return observed - predicted
