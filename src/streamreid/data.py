"""Synthetic two-domain re-id data, feature-file ingestion, and task streams.

Descriptors are plain dense vectors, the records a camera network would
hand us after feature extraction; a Dataset holds one split of them as a
matrix plus identity and camera columns. The generator draws one
centroid per identity, pushes target centroids through an affine domain
shift, and adds per-sample noise plus a per-camera offset. The target
identities are then partitioned into an ordered stream of disjoint tasks.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

import numpy as np

log = logging.getLogger(__name__)


class Domain(Enum):
    SOURCE = "source"
    TARGET = "target"


class Split(Enum):
    TRAIN = "train"
    QUERY = "query"
    GALLERY = "gallery"


class Row(NamedTuple):
    """One dataset row, built by Dataset.samples for readers that iterate
    rows; the program reads the columns instead."""

    descriptor: np.ndarray
    identity: int
    camera: int


@dataclass(eq=False)
class Dataset:
    """One split of one domain, held as columns: row i is descriptors[i]
    with identity_labels[i] and camera_labels[i].

    The columns are frozen in place (read-only, not copied) and checked at
    construction; a failed check names the first bad row.
    """

    descriptors: np.ndarray
    identity_labels: np.ndarray
    camera_labels: np.ndarray
    domain: Domain
    split: Split

    def __post_init__(self):
        self.descriptors = np.asarray(self.descriptors, dtype=np.float64)
        self.identity_labels = np.asarray(self.identity_labels, dtype=np.int64)
        self.camera_labels = np.asarray(self.camera_labels, dtype=np.int64)
        rows = self.descriptors.shape[:1]
        if (self.descriptors.ndim != 2 or self.identity_labels.shape != rows
                or self.camera_labels.shape != rows):
            raise ValueError(
                f"column shapes differ: descriptors {self.descriptors.shape}, "
                f"identities {self.identity_labels.shape}, "
                f"cameras {self.camera_labels.shape}")
        bad = np.flatnonzero(~np.isfinite(self.descriptors).all(axis=1))
        if bad.size:
            raise ValueError(f"row {bad[0]}: descriptor contains non-finite entries")
        bad = np.flatnonzero((self.identity_labels < 0) | (self.camera_labels < 0))
        if bad.size:
            raise ValueError(f"row {bad[0]}: identity and camera labels must be "
                             "non-negative")
        for column in (self.descriptors, self.identity_labels, self.camera_labels):
            column.flags.writeable = False

    def __len__(self) -> int:
        return self.descriptors.shape[0]

    @property
    def samples(self) -> tuple[Row, ...]:
        return tuple(map(Row, self.descriptors, self.identity_labels.tolist(),
                         self.camera_labels.tolist()))

    def descriptor_matrix(self) -> np.ndarray:
        return self.descriptors

    def identities(self) -> np.ndarray:
        return self.identity_labels

    def cameras(self) -> np.ndarray:
        return self.camera_labels

    def identity_set(self) -> set[int]:
        return set(self.identity_labels.tolist())

    def take(self, rows: np.ndarray, split: Split | None = None) -> "Dataset":
        """The given rows (indices or a boolean mask), in that order."""
        return Dataset(self.descriptors[rows], self.identity_labels[rows],
                       self.camera_labels[rows], self.domain, split or self.split)

    def subset_by_identity(self, identities: Iterable[int]) -> "Dataset":
        return self.take(np.isin(self.identity_labels, list(identities)))

    def validate(self) -> None:
        """Check that the dataset is non-empty and that a train split has at
        least two samples per identity."""
        if not len(self):
            raise ValueError("dataset is empty")
        if self.split is Split.TRAIN:
            ids, counts = np.unique(self.identity_labels, return_counts=True)
            thin = ids[counts < 2]
            if thin.size:
                raise ValueError("train split has identities with fewer than 2 "
                                 f"samples: {thin[:5].tolist()}")


# ---------------------------------------------------------------------------
# Domain shift
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class AffineShift:
    """Affine map x -> x @ matrix.T + offset applied to target descriptors."""

    matrix: np.ndarray
    offset: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x @ self.matrix.T + self.offset

    @classmethod
    def identity(cls, dim: int) -> "AffineShift":
        return cls(np.eye(dim), np.zeros(dim))


COND_CAP = 10.0


def random_affine_shift(dim: int, magnitude: float, seed: int) -> AffineShift:
    """Draw a well-conditioned random affine map of the given magnitude.

    magnitude 0 returns the exact identity; otherwise the matrix is
    I + magnitude * G / sqrt(dim) with singular values clipped so the
    condition number never exceeds COND_CAP, plus a random offset of
    norm ~ magnitude.
    """
    if magnitude == 0.0:
        return AffineShift.identity(dim)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim))
    m = np.eye(dim) + magnitude * g / math.sqrt(dim)
    u, s, vt = np.linalg.svd(m)
    s = np.clip(s, s.max() / COND_CAP, None)
    matrix = (u * s) @ vt
    offset = magnitude * rng.standard_normal(dim) / math.sqrt(dim)
    return AffineShift(matrix, offset)


def rotation_shift(dim: int, angle: float, seed: int,
                   offset_scale: float = 0.0) -> AffineShift:
    """Orthogonal shift rotating dimension i toward dimension dim//2 + i.

    With centroid variance concentrated in the first dim//2 dimensions,
    the angle moves identity-bearing variance into directions a
    source-trained extractor has learned to ignore; angle pi/2 swaps the
    subspaces entirely. Condition number is exactly 1.
    """
    k = dim // 2
    matrix = np.eye(dim)
    c, s = math.cos(angle), math.sin(angle)
    for i in range(k):
        j = k + i
        matrix[i, i] = c
        matrix[j, j] = c
        matrix[j, i] = s
        matrix[i, j] = -s
    rng = np.random.default_rng(seed)
    offset = offset_scale * rng.standard_normal(dim) / math.sqrt(dim) \
        if offset_scale > 0 else np.zeros(dim)
    return AffineShift(matrix, offset)


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

SHIFT_KINDS = ("identity", "random", "rotation")


@dataclass
class SynthConfig:
    """The synthetic-data config keys, under their config names."""

    synth_source_ids: int = 60
    synth_target_ids: int = 60
    synth_samples_per_id: int = 8
    synth_dim: int = 16
    synth_intra_std: float = 0.3
    synth_camera_jitter: float = 0.0
    synth_cameras: int = 2
    synth_shift_kind: str = "random"        # identity | random | rotation
    synth_shift_magnitude: float = 1.0
    synth_shift_offset: float = 0.0
    synth_shift_seed: int = 100             # shift map fixed across repetitions
    # identity variance on the first synth_strong_dims dimensions, the rest
    # scaled by synth_weak_scale; 0 = isotropic unit centroids
    synth_strong_dims: int = 0
    synth_weak_scale: float = 0.1
    synth_seed: int = 7

    def validate_synth(self) -> None:
        """Range checks, each naming its key; whether a float key is finite
        is left to the caller."""
        floors = {"synth_source_ids": 1, "synth_target_ids": 1,
                  # 1 query + 1 gallery + >=2 train samples per target identity
                  "synth_samples_per_id": 4,
                  "synth_dim": 1, "synth_cameras": 1, "synth_intra_std": 0,
                  "synth_camera_jitter": 0, "synth_shift_offset": 0,
                  "synth_strong_dims": 0, "synth_shift_seed": 0, "synth_seed": 0}
        for key, floor in floors.items():
            if getattr(self, key) < floor:
                raise ValueError(f"{key} must be >= {floor}, got {getattr(self, key)}")
        if self.synth_shift_kind not in SHIFT_KINDS:
            raise ValueError(f"synth_shift_kind must be one of {', '.join(SHIFT_KINDS)}, "
                             f"got {self.synth_shift_kind!r}")
        if 0 < self.synth_strong_dims < self.synth_dim and self.synth_weak_scale <= 0:
            raise ValueError("synth_weak_scale must be positive")

    def domain_shift(self) -> AffineShift:
        d, magnitude = self.synth_dim, self.synth_shift_magnitude
        if self.synth_shift_kind == "identity" or magnitude == 0.0:
            return AffineShift.identity(d)
        if self.synth_shift_kind == "random":
            return random_affine_shift(d, magnitude, seed=self.synth_shift_seed)
        return rotation_shift(d, magnitude * math.pi / 2, seed=self.synth_shift_seed,
                              offset_scale=self.synth_shift_offset)

    def centroid_scales(self) -> np.ndarray:
        """Per-dimension std of the identity centroids."""
        scales = np.ones(self.synth_dim)
        if self.synth_strong_dims > 0:
            scales[self.synth_strong_dims:] = self.synth_weak_scale
        return scales


@dataclass
class RunData:
    """The four datasets of a run."""

    source: Dataset
    target_train: Dataset
    target_query: Dataset
    target_gallery: Dataset


def _min_centroid_distance(centroids: np.ndarray) -> float:
    """The least distance between two centroids (inf for fewer than two),
    one row of the upper triangle at a time: no (n, n, d) tensor."""
    d2 = math.inf
    for i in range(centroids.shape[0] - 1):
        d2 = min(d2, float(np.sum((centroids[i + 1:] - centroids[i]) ** 2, axis=-1).min()))
    return math.sqrt(d2)


def _make_domain(centroids, domain, camera_count, intra_std, cam_offsets,
                 samples_per_identity, rng) -> Dataset:
    """Identity-major rows: sample j of an identity sits at row
    identity * samples_per_identity + j and is seen by camera j % camera_count."""
    n_ids = centroids.shape[0]
    identities = np.repeat(np.arange(n_ids), samples_per_identity)
    cameras = np.tile(np.arange(samples_per_identity) % camera_count, n_ids)
    desc = centroids[identities]
    if intra_std > 0:
        desc = desc + rng.normal(0.0, intra_std, desc.shape)
    return Dataset(desc + cam_offsets[cameras], identities, cameras, domain, Split.TRAIN)


def generate_synthetic(cfg: SynthConfig) -> tuple[RunData, float]:
    """Generate source train plus target train/query/gallery datasets, and
    the separation ratio.

    Per target identity, sample 0 goes to the query split, sample 1 to the
    gallery split (a different camera whenever synth_cameras >= 2, so the
    cross-camera protocol has at least one valid match), and the rest to
    train. Deterministic given cfg; rejects configurations whose classes
    are not separable (ratio of the closest centroid pair to the total
    noise scale must exceed 1).
    """
    rng = np.random.default_rng(cfg.synth_seed)
    d, cams, jitter = cfg.synth_dim, cfg.synth_cameras, cfg.synth_camera_jitter
    per_id, intra_std = cfg.synth_samples_per_id, cfg.synth_intra_std
    scales = cfg.centroid_scales()

    src_centroids = rng.standard_normal((cfg.synth_source_ids, d)) * scales
    tgt_centroids = cfg.domain_shift().apply(
        rng.standard_normal((cfg.synth_target_ids, d)) * scales)
    src_cam_offsets = rng.normal(0.0, jitter, (cams, d)) if jitter > 0 else np.zeros((cams, d))
    tgt_cam_offsets = rng.normal(0.0, jitter, (cams, d)) if jitter > 0 else np.zeros((cams, d))

    noise_std = math.sqrt(intra_std**2 + jitter**2)
    min_dist = min(_min_centroid_distance(src_centroids), _min_centroid_distance(tgt_centroids))
    ratio = math.inf if noise_std == 0 else min_dist / noise_std
    if ratio <= 1.0:
        raise ValueError(
            f"degenerate config: separation ratio {ratio:.3f} <= 1 "
            "(classes not distinguishable from noise)"
        )
    log.info("synthetic generator separation ratio: %.3f", ratio)

    source = _make_domain(src_centroids, Domain.SOURCE, cams, intra_std,
                          src_cam_offsets, per_id, rng)
    target = _make_domain(tgt_centroids, Domain.TARGET, cams, intra_std,
                          tgt_cam_offsets, per_id, rng)
    j = np.arange(len(target)) % per_id
    return RunData(source, target.take(j >= 2), target.take(j == 0, Split.QUERY),
                   target.take(j == 1, Split.GALLERY)), ratio


# ---------------------------------------------------------------------------
# Task stream
# ---------------------------------------------------------------------------

def split_stream(target_train: Dataset, n_tasks: int, seed: int) -> list[Dataset]:
    """Shuffle target identities and partition them into n_tasks ordered
    tasks with pairwise-disjoint identity sets.

    Group sizes differ by at most one; the remainder lands on the earliest
    tasks. Each task keeps all samples of its identities, in the original
    dataset order.
    """
    ids = np.unique(target_train.identities())
    if n_tasks < 1 or n_tasks > ids.size:
        raise ValueError(f"n_tasks={n_tasks} exceeds identity count {ids.size}")
    order = ids[np.random.default_rng(seed).permutation(ids.size)]
    return [target_train.subset_by_identity(chunk)
            for chunk in np.array_split(order, n_tasks)]


def read_ascii_lines(path, name) -> Iterator[str]:
    """The lines of the ASCII text file at path, as str.splitlines numbers
    them, one at a time, in one pass. A non-ASCII byte raises decode_ascii's
    error when its line is reached, after the lines before it are yielded.
    Lines are read one b"\n"-ended piece at a time, so a file whose lines
    end in a bare "\r" is held whole while its lines are yielded."""
    with open(path, "rb") as f:
        # a piece ends at b"\n", so a "\r\n" never straddles two pieces
        done = 0
        for piece in f:
            lines = decode_ascii(piece, name, done + 1).splitlines()
            done += len(lines)
            yield from lines


def decode_ascii(blob: bytes, name: str, line: int = 1) -> str:
    """blob as ASCII text; a non-ASCII byte raises ValueError naming the
    text, as name, and its line as str.splitlines numbers them from line."""
    try:
        return blob.decode("ascii")
    except UnicodeDecodeError as e:
        line += len((blob[:e.start].decode("ascii") + "x").splitlines()) - 1
        raise ValueError(f"{name} line {line}: non-ASCII byte "
                         f"0x{blob[e.start]:02x}") from None


# ---------------------------------------------------------------------------
# Feature file format
# ---------------------------------------------------------------------------
# Header:  D_IN <int> DOMAIN <source|target> SPLIT <train|query|gallery>
# Record:  identity<TAB>camera<TAB>v1,v2,...,vD

class FeatureFileError(ValueError):
    """Parse failure, naming the file and the offending line, as
    decode_ascii names a non-ASCII byte's."""

    def __init__(self, path, message: str, line: int | None = None):
        where = path if line is None else f"{path} line {line}"
        super().__init__(f"{where}: {message}")


def save_feature_file(path, dataset: Dataset) -> None:
    desc = dataset.descriptor_matrix()
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(f"D_IN {desc.shape[1]} DOMAIN {dataset.domain.value} "
                f"SPLIT {dataset.split.value}\n")
        for vec, ident, cam in zip(desc, dataset.identities().tolist(),
                                   dataset.cameras().tolist()):
            vals = ",".join(repr(float(v)) for v in vec)
            f.write(f"{ident}\t{cam}\t{vals}\n")


# values parsed per call of _parse_records: 512 records at D_IN 32, 16 at
# D_IN 1024; a chunk that fails is bisected to name the file's first bad
# line
CHUNK_VALUES = 16_384


def _parse_records(lines: list[str], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 identity and camera rows and the descriptors of record lines.
    ValueError names one line's first failed check: fields, parse, D_IN, finite, signs."""
    parts = [line.split("\t") for line in lines]
    bad = [len(p) for p in parts if len(p) != 3]
    if bad:
        raise ValueError(f"expected 3 tab-separated fields, got {bad[0]}")
    ids, cams, vals = zip(*parts)
    try:
        # a label int() takes but int64 cannot hold raises OverflowError here
        labels = np.array([list(map(int, ids)), list(map(int, cams))], dtype=np.int64)
        # np.array calls float() on each token: it takes what float() takes
        block = np.array([v.split(",") for v in vals], dtype=np.float64)
    except (ValueError, OverflowError) as e:
        raise ValueError(f"unparseable field ({e})") from e
    if block.shape[1] != dim:
        raise ValueError(f"dimension {block.shape[1]} != header D_IN {dim}")
    if not np.isfinite(block).all():
        raise ValueError("non-finite descriptor entry")
    if labels.min() < 0:
        raise ValueError("negative identity or camera label")
    return labels, block


def _first_bad_record(lines: list[str], dim: int) -> int:
    """The index of the first of lines that _parse_records rejects, given
    that it rejects lines. Every check is per line, so a run of lines fails
    exactly when one of its lines does, and halving the run that holds the
    first bad line finds it in log2(len(lines)) parses."""
    lo, hi = 0, len(lines)      # lines[lo:hi] holds the first bad line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_records(lines[lo:mid], dim)
            lo = mid
        except ValueError:
            hi = mid
    return lo


def load_feature_file(path) -> Dataset:
    """The records of the feature file at path, streamed: a chunk's lines
    and tokens are freed before the next chunk is read."""
    lines = read_ascii_lines(path, path)
    header = next(lines, None)
    if header is None:
        raise FeatureFileError(path, "empty file")
    head = header.split()
    if len(head) != 6 or head[0] != "D_IN" or head[2] != "DOMAIN" or head[4] != "SPLIT":
        raise FeatureFileError(path, f"malformed header: {header!r}", 1)
    try:
        dim = int(head[1])
        domain = Domain(head[3])
        split = Split(head[5])
    except ValueError as e:
        raise FeatureFileError(path, f"header: {e}", 1) from e
    if dim < 1:
        raise FeatureFileError(path, f"header: non-positive dimension {dim}", 1)

    records = ((no, line) for no, line in enumerate(lines, 2) if line.strip())
    blocks = []     # (labels, descriptors) per chunk
    while chunk := list(itertools.islice(records, max(1, CHUNK_VALUES // dim))):
        chunk_lines = [line for _, line in chunk]
        try:
            blocks.append(_parse_records(chunk_lines, dim))
        except ValueError:
            bad = _first_bad_record(chunk_lines, dim)
            try:
                _parse_records([chunk_lines[bad]], dim)
            except ValueError as e:
                raise FeatureFileError(path, str(e), chunk[bad][0]) from e
            raise
    if not blocks:
        raise FeatureFileError(path, "file has a header but no records")
    labels = np.concatenate([block_labels for block_labels, _ in blocks], axis=1)
    descriptors = np.concatenate([block for _, block in blocks])
    return Dataset(descriptors, *labels, domain, split)
