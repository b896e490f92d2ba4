import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from streamreid import data
from streamreid.data import (CHUNK_VALUES, AffineShift, Dataset, Domain,
                             FeatureFileError, Split, SynthConfig, _make_domain,
                             generate_synthetic, load_feature_file,
                             random_affine_shift, save_feature_file,
                             split_stream)
from tests.conftest import make_dataset


def base_cfg(**overrides):
    kw = dict(
        synth_source_ids=6, synth_target_ids=5, synth_samples_per_id=8,
        synth_dim=4, synth_intra_std=0.05, synth_shift_kind="identity",
        synth_cameras=2, synth_camera_jitter=0.0, synth_seed=3,
    )
    kw.update(overrides)
    return SynthConfig(**kw)


def splits(res):
    return res.source, res.target_train, res.target_query, res.target_gallery


def is_identity_shift(shift):
    d = shift.matrix.shape[0]
    return np.array_equal(shift.matrix, np.eye(d)) and not shift.offset.any()


class TestGenerateSynthetic:
    def test_zero_noise_collapses_identities(self):
        res, _ = generate_synthetic(base_cfg(synth_intra_std=0.0, synth_camera_jitter=0.0))
        mat, ids = res.source.descriptor_matrix(), res.source.identities()
        for ident in range(6):
            rows = mat[ids == ident]
            for r in rows[1:]:
                assert np.array_equal(r, rows[0])

    @pytest.mark.parametrize("intra_std", [0.0, 0.3])
    def test_domain_rows_match_per_row_draws(self, intra_std):
        # one (n, d) normal draw fills the rows exactly as n draws of d values
        cents = np.random.default_rng(1).standard_normal((5, 3))
        offsets = np.random.default_rng(2).standard_normal((3, 3))
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        ds = _make_domain(cents, Domain.SOURCE, 3, intra_std, offsets, 4, rng_a)
        rows = []
        for ident in range(5):
            for j in range(4):
                vec = cents[ident] + rng_b.normal(0.0, intra_std, 3) \
                    if intra_std > 0 else cents[ident].copy()
                rows.append(vec + offsets[j % 3])
        assert ds.descriptor_matrix().tobytes() == np.array(rows).tobytes()
        assert ds.identities().tolist() == [i for i in range(5) for _ in range(4)]
        assert ds.cameras().tolist() == [j % 3 for _ in range(5) for j in range(4)]
        assert rng_a.random() == rng_b.random()

    def test_determinism_bit_identical(self):
        a, _ = generate_synthetic(base_cfg(synth_seed=42))
        b, _ = generate_synthetic(base_cfg(synth_seed=42))
        for ds_a, ds_b in zip(splits(a), splits(b)):
            assert ds_a.descriptor_matrix().tobytes() == ds_b.descriptor_matrix().tobytes()
            assert np.array_equal(ds_a.identities(), ds_b.identities())
            assert np.array_equal(ds_a.cameras(), ds_b.cameras())

    def test_target_sample_count_bookkeeping(self):
        # 50 identities x 8 samples must land in train/query/gallery exactly once
        res, _ = generate_synthetic(base_cfg(synth_target_ids=50))
        total = len(res.target_train) + len(res.target_query) + len(res.target_gallery)
        assert total == 50 * 8
        # enumeration per identity: 1 query, 1 gallery, 6 train
        for ident in range(50):
            n_tr = np.count_nonzero(res.target_train.identities() == ident)
            n_q = np.count_nonzero(res.target_query.identities() == ident)
            n_g = np.count_nonzero(res.target_gallery.identities() == ident)
            assert (n_tr, n_q, n_g) == (6, 1, 1)

    def test_query_gallery_cross_camera(self):
        res, _ = generate_synthetic(base_cfg())
        q, g = res.target_query, res.target_gallery
        q_cam = dict(zip(q.identities().tolist(), q.cameras().tolist()))
        g_cam = dict(zip(g.identities().tolist(), g.cameras().tolist()))
        for ident in q_cam:
            assert q_cam[ident] != g_cam[ident]

    def test_rejects_degenerate_separation(self):
        with pytest.raises(ValueError, match="separation ratio"):
            generate_synthetic(base_cfg(synth_intra_std=50.0))

    def test_reports_separation_ratio(self):
        _, ratio = generate_synthetic(base_cfg())
        assert ratio > 1.0
        assert generate_synthetic(base_cfg(synth_intra_std=0.0))[1] == np.inf

    def test_min_centroid_distance_matches_broadcast_bit_for_bit(self):
        def broadcast(c):
            if c.shape[0] < 2:
                return math.inf
            d2 = np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=-1)
            np.fill_diagonal(d2, np.inf)
            return float(np.sqrt(d2.min()))

        rng = np.random.default_rng(11)
        for case in range(300):
            n, d = int(rng.integers(0, 40)), int(rng.integers(1, 300))
            c = rng.standard_normal((n, d)) * rng.uniform(0.01, 100.0)
            if n > 2 and case % 3 == 0:      # duplicate centroids: distance 0
                c[rng.integers(n)] = c[rng.integers(n)]
            got, want = data._min_centroid_distance(c), broadcast(c)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (case, got, want)

    def test_min_centroid_distance_peak_memory_is_bounded(self):
        # the 10x config's 600 identities at synth_dim 32; an (n, n, d)
        # difference tensor would trace 600 times the centroids' bytes
        c = np.random.default_rng(0).standard_normal((600, 32))
        tracemalloc.start()
        try:
            data._min_centroid_distance(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * c.nbytes, peak / c.nbytes

    def test_identity_shift_is_exposed_and_exact(self):
        # the config carries the shift; the identity map moves no bit
        shift = base_cfg().domain_shift()
        assert is_identity_shift(shift)
        x = np.random.default_rng(3).standard_normal((5, 4))
        assert np.array_equal(shift.apply(x), x)
        shifted = random_affine_shift(4, 0.5, seed=1)
        assert not is_identity_shift(shifted)

    def test_domains_tagged(self):
        res, _ = generate_synthetic(base_cfg())
        assert res.source.domain is Domain.SOURCE
        for ds in (res.target_train, res.target_query, res.target_gallery):
            assert ds.domain is Domain.TARGET

    # sha256 over the descriptor, identity and camera columns of the four
    # splits, and the separation ratio, with the other keys at their defaults
    @pytest.mark.parametrize("kind, strong_dims, digest, ratio", [
        ("identity", 0, "e678f541b715fc5974dc12937e20dbd1e1e470ec54935bce9a9791b1d9ea4c29",
         5.482577387433156),
        ("identity", 8, "f9f7073e967661f86ec8258e804bf4c855b3229fc70f773e0ecaa7bb1256f051",
         2.6975331082256973),
        ("random", 0, "4aa314d3d8df712aca89773ce19056177d3b4c50ad090f215936dde399af3c6f",
         5.784663414196425),
        ("random", 8, "37f081f81bf49262dfdd330f4116bc4346d045fa29ecbf1069d8a2bc575d92df",
         2.8604329137960023),
        ("rotation", 0, "9d466565cee803c7f764e2d477b6266ba6cef462d7275bc7beafbdda0e0ab234",
         5.482577387433156),
        ("rotation", 8, "b1b9b4312356e03c5e3b2e0d5e53dd1cd790d311f8fefe91769a43ddeb9f45a5",
         2.697533108225697),
    ])
    def test_pinned_output_per_shift_kind(self, kind, strong_dims, digest, ratio):
        data, got_ratio = generate_synthetic(SynthConfig(
            synth_shift_kind=kind, synth_strong_dims=strong_dims,
            synth_camera_jitter=0.33, synth_shift_offset=0.5))
        h = hashlib.sha256()
        for ds in splits(data):
            for column in (ds.descriptors, ds.identity_labels, ds.camera_labels):
                h.update(column.tobytes())
        assert h.hexdigest() == digest
        assert got_ratio == ratio


class TestAffineShift:
    def test_magnitude_zero_is_identity(self):
        shift, ident = random_affine_shift(5, 0.0, seed=9), AffineShift.identity(5)
        assert np.array_equal(shift.matrix, ident.matrix)
        assert np.array_equal(shift.offset, ident.offset)

    def test_condition_number_capped(self):
        for seed in range(10):
            shift = random_affine_shift(8, 2.5, seed=seed)
            s = np.linalg.svd(shift.matrix, compute_uv=False)
            assert s.max() / s.min() <= 10.0 + 1e-9

    def test_apply_matches_direct_formula(self):
        shift = random_affine_shift(3, 1.0, seed=4)
        x = np.random.default_rng(0).standard_normal((7, 3))
        assert np.allclose(shift.apply(x), x @ shift.matrix.T + shift.offset)


class TestSplitStream:
    def _dataset(self, n_ids, per_id=4):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((n_ids * per_id, 2))
        ids = np.repeat(np.arange(n_ids), per_id)
        return make_dataset(rows, ids, domain=Domain.TARGET)

    def test_singleton_partition(self):
        stream = split_stream(self._dataset(5), n_tasks=5, seed=0)
        assert len(stream) == 5
        assert all(len(t.identity_set()) == 1 for t in stream)

    def test_near_equal_sizes_751(self):
        stream = split_stream(self._dataset(751), n_tasks=5, seed=1)
        sizes = [len(t.identity_set()) for t in stream]
        assert sizes == [151, 150, 150, 150, 150]    # the remainder goes first

    def test_same_seed_same_partition(self):
        a = split_stream(self._dataset(20), 4, seed=7)
        b = split_stream(self._dataset(20), 4, seed=7)
        assert [t.identity_set() for t in a] == [t.identity_set() for t in b]

    def test_partition_is_exact_cover(self):
        ds = self._dataset(23)
        for seed in range(10):
            for n_tasks in (2, 3, 5, 23):
                stream = split_stream(ds, n_tasks, seed=seed)
                sets = [t.identity_set() for t in stream]
                union = set().union(*sets)
                assert union == ds.identity_set()
                assert sum(len(s) for s in sets) == len(union)
                # all samples of each identity travel together
                for t in stream:
                    for ident in t.identity_set():
                        assert np.count_nonzero(t.identities() == ident) == 4

    def test_too_many_tasks_rejected(self):
        with pytest.raises(ValueError, match="n_tasks"):
            split_stream(self._dataset(3), 4, seed=0)


class TestFeatureFile:
    def test_small_file_parses(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text(
            "D_IN 4 DOMAIN source SPLIT train\n"
            "0\t0\t1.0,2.0,3.0,4.0\n"
            "0\t1\t1.5,2.5,3.5,4.5\n"
            "1\t0\t-1.0,0.0,0.5,0.25\n"
        )
        ds = load_feature_file(p)
        assert len(ds) == 3
        assert ds.descriptor_matrix().shape == (3, 4)
        assert ds.domain is Domain.SOURCE and ds.split is Split.TRAIN

    def test_nan_entry_names_record(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text(
            "D_IN 2 DOMAIN target SPLIT query\n"
            "0\t0\t1.0,2.0\n"
            "1\t0\t1.0,nan\n"
        )
        with pytest.raises(FeatureFileError, match=f"^{re.escape(str(p))} line 3: non-finite"):
            load_feature_file(p)

    def test_dimension_mismatch_names_record(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("D_IN 3 DOMAIN target SPLIT train\n0\t0\t1.0,2.0\n")
        with pytest.raises(FeatureFileError,
                           match=f"^{re.escape(str(p))} line 2: dimension 2 != header D_IN 3$"):
            load_feature_file(p)

    def test_huge_header_dimension_fails_at_the_record(self, tmp_path):
        # no matrix is sized from the header before a record is parsed
        p = tmp_path / "f.txt"
        p.write_text("D_IN 1000000000000 DOMAIN target SPLIT query\n0\t0\t1.0,2.0\n")
        with pytest.raises(FeatureFileError, match=f"^{re.escape(str(p))} line 2: "
                                                   "dimension 2 != header D_IN 1000000000000$"):
            load_feature_file(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("DIM 3 source train\n")
        with pytest.raises(FeatureFileError,
                           match=f"^{re.escape(str(p))} line 1: malformed header: "):
            load_feature_file(p)

    def test_round_trip_identity(self, tmp_path, small_synth):
        for name, ds in [("src", small_synth.source), ("q", small_synth.target_query)]:
            p = tmp_path / f"{name}.txt"
            save_feature_file(p, ds)
            back = load_feature_file(p)
            assert len(back) == len(ds)
            assert back.split is ds.split and back.domain is ds.domain
            assert np.array_equal(back.descriptor_matrix(), ds.descriptor_matrix())
            assert np.array_equal(back.identities(), ds.identities())
            assert np.array_equal(back.cameras(), ds.cameras())


class TestReadAsciiLines:
    """The streamed lines are the whole text's splitlines, read in one pass:
    a non-ASCII byte is raised, naming its line, when its line is reached."""

    SEPARATORS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")

    def test_lines_match_splitlines(self, tmp_path):
        rng = np.random.default_rng(5)
        p = tmp_path / "t.txt"
        for case in range(40):
            n = int(rng.integers(0, 30))
            text = "".join("ab \t"[:rng.integers(5)] + self.SEPARATORS[rng.integers(8)]
                           for _ in range(n))
            if case % 3:
                text += "tail"[:rng.integers(5)]
            p.write_bytes(text.encode("ascii"))
            assert list(data.read_ascii_lines(p, "t")) == text.splitlines(), (case, text)

    def test_non_ascii_byte_named_by_line_after_the_lines_before_it(self, tmp_path):
        # 15 b"\n"-ended lines, which splitlines cuts into 20, then the bad one
        head = b"a\r\nb\rc\n\n" * 5
        p = tmp_path / "t.txt"
        p.write_bytes(head + b"d\xc3\n" + b"e\n")
        lines = data.read_ascii_lines(p, "t")
        assert list(itertools.islice(lines, 20)) == head.decode("ascii").splitlines()
        with pytest.raises(ValueError, match="^t line 21: non-ASCII byte 0xc3$"):
            next(lines)

    @pytest.mark.parametrize("end", [b"\r", b"\n"])
    def test_non_ascii_byte_and_record_fault_name_the_same_line(self, tmp_path, end):
        # records are numbered as splitlines numbers them, so a bare "\r"
        # ends a line for the non-ASCII error too
        p = tmp_path / "t.txt"
        head = b"D_IN 1 DOMAIN source SPLIT train\r0\t0\t1.0" + end + b"0\t0\t2.0"
        for bad, error in ((b"\xc3", "non-ASCII byte 0xc3"),
                           (b"x", "unparseable field (could not convert string "
                                  "to float: '2.0x')")):
            p.write_bytes(head + bad + end)
            with pytest.raises(ValueError) as e:
                load_feature_file(p)
            assert str(e.value) == f"{p} line 3: {error}"


def read_ascii_lines(path, name) -> list[str]:
    """The whole-file list of lines the per-record reader below indexes."""
    return list(data.read_ascii_lines(path, name))


def per_record_load_feature_file(path) -> Dataset:
    """The reader that parsed one record at a time with float() per value,
    kept verbatim as the byte oracle of the chunked load_feature_file."""
    lines = read_ascii_lines(path, path)
    if not lines:
        raise FeatureFileError(path, "empty file")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "D_IN" or head[2] != "DOMAIN" or head[4] != "SPLIT":
        raise FeatureFileError(path, f"malformed header: {lines[0]!r}", 1)
    try:
        dim = int(head[1])
        domain = Domain(head[3])
        split = Split(head[5])
    except ValueError as e:
        raise FeatureFileError(path, f"header: {e}", 1) from e
    if dim < 1:
        raise FeatureFileError(path, f"header: non-positive dimension {dim}", 1)

    records = []
    for no, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FeatureFileError(
                path, f"expected 3 tab-separated fields, got {len(parts)}", no)
        try:
            ident, cam = int(parts[0]), int(parts[1])
            vec = [float(v) for v in parts[2].split(",")]
        except ValueError as e:
            raise FeatureFileError(path, f"unparseable field ({e})", no) from e
        if len(vec) != dim:
            raise FeatureFileError(path, f"dimension {len(vec)} != header D_IN {dim}", no)
        if not all(map(math.isfinite, vec)):
            raise FeatureFileError(path, "non-finite descriptor entry", no)
        if ident < 0 or cam < 0:
            raise FeatureFileError(path, "negative identity or camera label", no)
        records.append((ident, cam, vec))
    if not records:
        raise FeatureFileError(path, "file has a header but no records")
    identities, cameras, rows = zip(*records)
    return Dataset(np.array(rows), identities, cameras, domain, split)


# value spellings float() takes beside repr's
ODD_VALUES = ("1e5", "+1", " 1.5", "1_0", "-0.0", "1.5 ", "2.", ".5", "1E-3")
BLANKS = ("", "   ", "\t", " \t ")


def random_records(rng, n, dim):
    """n well-formed record lines with blank lines between some of them:
    repr values, odd spellings and labels up to 2**62."""
    values = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-8, 8, (n, dim))
    odd = np.where(rng.random((n, dim)) < 0.1, rng.integers(len(ODD_VALUES), size=(n, dim)), -1)
    idents = np.where(rng.random(n) < 0.5, rng.integers(50, size=n), rng.integers(2**62, size=n))
    cams, blanks = rng.integers(4, size=n), rng.integers(-20, len(BLANKS), size=n)
    lines = []
    for i in range(n):
        if blanks[i] >= 0:
            lines.append(BLANKS[blanks[i]])
        vals = ",".join(repr(v) if k < 0 else ODD_VALUES[k]
                        for v, k in zip(values[i].tolist(), odd[i].tolist()))
        lines.append(f"{idents[i]}\t{cams[i]}\t{vals}")
    return lines


def first_value(token):
    """An edit that replaces the first descriptor value with token."""
    def edit(line):
        head, _, vals = line.rpartition("\t")
        return f"{head}\t{token}{vals[len(vals.split(',')[0]):]}"
    return edit


# faults for each per-line check, as edits of a record line; every edit
# adds a fault and none takes one away, so two edits of one line also fail
FAULTS = {
    "fields": [lambda line: line.replace("\t", ",", 1), lambda line: line + "\t0"],
    "unparseable": [lambda line: "x" + line, lambda line: line.replace("\t", "\t1.5", 1),
                    lambda line: line + ",1e", lambda line: line + ",",
                    lambda line: line + "0x10", first_value("1__0")],
    "dimension": [lambda line: line + ",1.0", lambda line: line + ",2.5,-3"],
    "non-finite": [first_value("nan"), first_value("-inf"), first_value("1e999")],
    "negative": [lambda line: "-1" + line.lstrip("0123456789"),
                 lambda line: line.replace("\t", "\t-1", 1)],
}


def outcome(load, path):
    """What load makes of the file: its bytes and columns, or its error."""
    try:
        ds = load(path)
    except Exception as e:  # the exception type and message are compared
        return type(e), str(e)
    return (ds.descriptors.tobytes(), ds.descriptors.shape, ds.identity_labels.tolist(),
            ds.camera_labels.tolist(), ds.domain, ds.split)


def chunk_records(dim):
    """Records per chunk of load_feature_file at D_IN dim."""
    return CHUNK_VALUES // dim


class TestChunkedReaderParity:
    """load_feature_file matches the per-record reader it replaced, byte for
    byte on well-formed files and error for error on faulty ones. Parsing
    in chunks took loading the four stream-10x files (14,400 records x 32)
    from 0.37-0.52 s to 0.26-0.42 s of CPU in a fresh process, and the
    traced peak of the 7,200-record source file from 14.9 MiB (3.4x the
    file) to 9.2 MiB (2.1x); streaming the chunks then took it below the
    file's size (test_loading_peak_memory_is_bounded). NumPy's C reader,
    with one ASCII decode per block of lines, then took the four files
    from 0.181 to 0.156 s of CPU (median of 12 alternating fresh-process
    pairs on a shared 2-core x86 machine, all won, same bytes)."""

    HEADER = "D_IN {dim} DOMAIN target SPLIT gallery"

    def write(self, path, dim, lines):
        path.write_text("\n".join([self.HEADER.format(dim=dim)] + lines) + "\n",
                        encoding="ascii")

    def test_well_formed_files_load_identically(self, tmp_path):
        rng = np.random.default_rng(0)
        for case, dim in enumerate(list(range(1, 41)) + [32, 32, 700]):
            chunk = chunk_records(dim)
            n = (10 * chunk + 5 if dim == 700 else      # 11 chunks of 23 records
                 int(rng.choice([1, 2, chunk, chunk + 1, rng.integers(1, 3 * chunk)])))
            p = tmp_path / f"f{case}.txt"
            self.write(p, dim, random_records(rng, n, dim))
            want = outcome(per_record_load_feature_file, p)
            assert isinstance(want[0], bytes), want     # the oracle accepts it
            assert outcome(load_feature_file, p) == want, (case, dim, n)

    def test_faulty_files_fail_identically(self, tmp_path):
        """Two faults a file, on records near chunk edges in odd cases and
        anywhere in even ones: 64 files at D_IN 1-5, where a chunk is 3,276
        to 16,384 records, and 8 at D_IN 700, where it is 23."""
        rng = np.random.default_rng(1)
        kinds = sorted(FAULTS)
        well_formed = {}    # D_IN -> the record lines every case at it edits
        for case, dim in enumerate(rng.integers(1, 6, 64).tolist() + [700] * 8):
            chunk = chunk_records(dim)
            n_chunks = 10 if dim == 700 else 2
            if dim not in well_formed:
                well_formed[dim] = random_records(rng, n_chunks * chunk + 2, dim)
            lines = list(well_formed[dim])
            records = [i for i, line in enumerate(lines) if line.strip()]
            near_boundary = [0, 1] + [k * chunk + d for k in range(1, n_chunks + 1)
                                      for d in (-2, -1, 0, 1)]
            first, second = rng.choice(len(kinds), 2, replace=False)
            picks = (rng.choice(near_boundary, 2) if case % 2 else
                     rng.integers(len(records), size=2))
            if case % 7 == 0:
                picks[1] = picks[0]     # both faults on one line: check order
            for kind, pick in zip((kinds[first], kinds[second]), picks):
                edits, row = FAULTS[kind], records[pick]
                lines[row] = edits[rng.integers(len(edits))](lines[row])
            p = tmp_path / f"bad{case}.txt"
            self.write(p, dim, lines)
            want = outcome(per_record_load_feature_file, p)
            assert want[0] is FeatureFileError, (case, want)
            assert outcome(load_feature_file, p) == want, (case, dim)

    def test_faults_are_met_chunk_by_chunk(self, tmp_path):
        """The file is read once, chunk by chunk, so the first faulty chunk
        decides: a record fault in an earlier chunk wins over a non-ASCII
        byte, and a non-ASCII byte wins over a record fault earlier in its
        own chunk, which is read whole before it is parsed."""
        dim = 700                               # 23 records a chunk
        chunk = chunk_records(dim)
        lines = random_records(np.random.default_rng(3), 3 * chunk, dim)
        records = [i for i, line in enumerate(lines) if line.strip()]
        p = tmp_path / "mixed.txt"

        def load_with(record_fault, non_ascii):
            """The error of the file with a dimension fault on one record and
            a non-ASCII byte at the end of another, by record index."""
            text = [self.HEADER.format(dim=dim)] + lines
            text[records[record_fault] + 1] += ",1.0"
            blobs = [line.encode("ascii") for line in text]
            bad_line = records[non_ascii] + 2
            blobs[bad_line - 1] += b"\xc3"
            p.write_bytes(b"\n".join(blobs) + b"\n")
            with pytest.raises(ValueError) as e:
                load_feature_file(p)
            return e.value, records[record_fault] + 2, bad_line

        err, fault_line, _ = load_with(chunk - 1, chunk)
        assert isinstance(err, FeatureFileError)
        assert str(err) == (f"{p} line {fault_line}: dimension {dim + 1} "
                            f"!= header D_IN {dim}")
        err, _, bad_line = load_with(chunk + 1, 2 * chunk - 1)
        assert str(err) == f"{p} line {bad_line}: non-ASCII byte 0xc3"

    def test_loading_peak_memory_is_bounded(self, tmp_path):
        # a gen-data source file at the 10x scale, 600 identities x 12
        # samples at D_IN 32, and a wide one, 300 records at D_IN 1024
        rng = np.random.default_rng(2)
        for n_ids, dim in ((600, 32), (25, 1024)):
            source = _make_domain(rng.standard_normal((n_ids, dim)), Domain.SOURCE, 2, 0.3,
                                  np.zeros((2, dim)), 12, rng)
            p = tmp_path / f"source_train_{dim}.txt"
            save_feature_file(p, source)
            tracemalloc.start()
            try:
                loaded = load_feature_file(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            matrix = loaded.descriptors
            assert matrix.shape == (12 * n_ids, dim)
            assert peak <= 2.5 * matrix.nbytes, (dim, peak / matrix.nbytes)


class TestFastPathAndFallback:
    """NumPy's C reader parses a chunk's values; a chunk it rejects, or
    that holds what it reads unlike float(), goes to data._float_values.
    read_ascii_lines decodes a block of pieces at once, and a block with a
    non-ASCII byte piece by piece."""

    HEADER = TestChunkedReaderParity.HEADER
    write = TestChunkedReaderParity.write

    @pytest.fixture
    def fallback_calls(self, monkeypatch):
        """The record count of each chunk that _float_values parses."""
        calls, float_values = [], data._float_values

        def spy(vals):
            calls.append(len(vals))
            return float_values(vals)

        monkeypatch.setattr(data, "_float_values", spy)
        return calls

    def test_saved_files_never_take_the_fallback(self, tmp_path, fallback_calls):
        rng = np.random.default_rng(6)
        for dim, n in ((1, 3 * chunk_records(1) + 7), (32, 1_500), (700, 50)):
            values = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-300, 300, (n, dim))
            values[0, 0] = -0.0
            p = tmp_path / f"saved_{dim}.txt"
            save_feature_file(p, Dataset(values, rng.integers(2**62, size=n),
                                         rng.integers(4, size=n), Domain.TARGET, Split.GALLERY))
            want = outcome(per_record_load_feature_file, p)
            assert want[0] == values.tobytes()
            assert outcome(load_feature_file, p) == want, dim
        assert fallback_calls == []

    def test_a_float_only_spelling_loads_through_the_fallback(self, tmp_path, fallback_calls):
        dim = 32
        chunk = chunk_records(dim)
        values = np.random.default_rng(7).standard_normal((3 * chunk, dim))
        lines = [f"{i % 50}\t{i % 3}\t" + ",".join(map(repr, row))
                 for i, row in enumerate(values.tolist())]
        lines[chunk + 5] = first_value("1_0")(lines[chunk + 5])
        p = tmp_path / "underscore.txt"
        self.write(p, dim, lines)
        want = outcome(per_record_load_feature_file, p)
        assert isinstance(want[0], bytes) and np.frombuffer(want[0])[(chunk + 5) * dim] == 10.0
        assert outcome(load_feature_file, p) == want
        assert fallback_calls == [chunk]     # only the chunk that holds it

    @pytest.mark.parametrize("token", ["1\x1f", "\x1f1", "\x1f", ""])
    def test_what_only_the_c_reader_takes_fails_as_float_fails(self, tmp_path, token):
        # the C reader strips "\x1f" as a space and skips an empty line
        dim = 1
        lines = [f"{i}\t0\t{i}.5" for i in range(10)]
        lines[4] = f"4\t0\t{token}"
        p = tmp_path / "c_only.txt"
        self.write(p, dim, lines)
        want = outcome(per_record_load_feature_file, p)
        assert want == (FeatureFileError,
                        f"{p} line 6: unparseable field (could not convert string "
                        f"to float: {token!r})")
        assert outcome(load_feature_file, p) == want

    def test_non_ascii_byte_in_a_later_block_named_after_the_lines_before_it(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "READ_BLOCK_BYTES", 16)
        pieces = [b"ab\r\n", b"cd\ref\n", b"\n", b"g\x0bh\n", b"ij\n"] * 6
        assert sum(map(len, pieces)) > 4 * data.READ_BLOCK_BYTES
        p = tmp_path / "t.txt"
        for k in range(len(pieces) + 1):
            p.write_bytes(b"".join(pieces[:k] + [b"x\xc3\n"] + pieces[k:]))
            before = b"".join(pieces[:k]).decode("ascii").splitlines()
            lines = data.read_ascii_lines(p, "t")
            assert list(itertools.islice(lines, len(before))) == before, k
            with pytest.raises(ValueError,
                               match=f"^t line {len(before) + 1}: non-ASCII byte 0xc3$"):
                next(lines)


class TestInvariants:
    def test_non_finite_row_named(self):
        with pytest.raises(ValueError, match="row 2: descriptor contains non-finite"):
            make_dataset([[1.0, 0.0], [0.0, 1.0], [1.0, np.nan]], [0, 0, 1])

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="row 1: identity and camera labels"):
            make_dataset([[1.0], [2.0]], [0, -1])
        with pytest.raises(ValueError, match="row 0: identity and camera labels"):
            make_dataset([[1.0], [2.0]], [0, 1], cameras=[-2, 0])

    def test_column_lengths_must_match(self):
        with pytest.raises(ValueError, match="column shapes differ"):
            make_dataset([[1.0], [2.0], [3.0]], [0, 1])
        with pytest.raises(ValueError, match="column shapes differ"):
            make_dataset([[1.0], [2.0]], [0, 1], cameras=[0])
        with pytest.raises(ValueError, match="column shapes differ"):
            Dataset(np.ones(3), [0, 0, 1], [0, 0, 0], Domain.SOURCE, Split.TRAIN)

    def test_descriptor_matrix_is_read_only(self):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 0])
        with pytest.raises(ValueError):
            ds.descriptor_matrix()[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.identities()[0] = 3
        assert ds.descriptor_matrix()[0, 0] == 1.0

    def test_train_split_needs_two_samples_per_identity(self):
        ds = make_dataset([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [0, 0, 1])
        with pytest.raises(ValueError, match="fewer than 2"):
            ds.validate()

    def test_subset_by_identity_keeps_row_order(self):
        ds = make_dataset(np.arange(12.0).reshape(6, 2), [3, 1, 2, 3, 1, 0],
                          cameras=[0, 1, 0, 1, 0, 1])
        sub = ds.subset_by_identity({1, 3})
        assert sub.identities().tolist() == [3, 1, 3, 1]
        assert sub.cameras().tolist() == [0, 1, 1, 0]
        assert np.array_equal(sub.descriptor_matrix(), ds.descriptor_matrix()[[0, 1, 3, 4]])
        assert (sub.domain, sub.split) == (ds.domain, ds.split)
        assert len(ds.subset_by_identity(set())) == 0

    def test_row_view_matches_columns(self):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], [5, 6], cameras=[1, 0])
        rows = ds.samples
        assert [(r.identity, r.camera) for r in rows] == [(5, 1), (6, 0)]
        assert np.array_equal(rows[1].descriptor, [3.0, 4.0])
        with pytest.raises(ValueError):
            rows[0].descriptor[0] = 0.0
