import numpy as np
import pytest
import scipy.sparse as sp

import crqopt
from crqopt import io as cio
from oracles import write_labels


def test_problem_files_roundtrip(tmp_path, small_example):
    A = np.diag([1.0, 2, 3, 4, 5])
    manifest = cio.write_problem(str(tmp_path), A, small_example.C, small_example.b)
    loaded = cio.load_problem(manifest)
    assert loaded.n == 5 and loaded.m == 1
    x = np.arange(5.0)
    assert np.allclose(loaded.A.matvec(x), A @ x)
    assert np.allclose(loaded.C, small_example.C)
    assert np.allclose(loaded.b, small_example.b)


def test_sparse_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    A = sp.random(12, 12, density=0.3, random_state=1)
    A = (A + A.T).tocsr()
    C = rng.standard_normal((12, 2))
    manifest = cio.write_problem(str(tmp_path), A, C, [0.1, 0.2])
    loaded = cio.load_problem(manifest)
    x = rng.standard_normal(12)
    assert np.allclose(loaded.A.matvec(x), A @ x)


def test_coordinate_and_array_constraints_load_alike(tmp_path):
    rng = np.random.default_rng(2)
    A = np.diag(np.arange(1.0, 13.0))
    C = rng.standard_normal((12, 3))
    C[C < 0.3] = 0.0
    array = cio.load_problem(cio.write_problem(str(tmp_path / "array"), A, C, [0.1, 0.2, 0.3]))
    coordinate = cio.load_problem(cio.write_problem(str(tmp_path / "coordinate"), A,
                                                    sp.csr_matrix(C), [0.1, 0.2, 0.3]))
    assert "coordinate" in (tmp_path / "coordinate" / "C.mtx").read_text().splitlines()[0]
    assert "array" in (tmp_path / "array" / "C.mtx").read_text().splitlines()[0]
    assert coordinate.C.dtype == array.C.dtype == np.float64
    assert np.array_equal(coordinate.C.toarray(), array.C)
    assert np.array_equal(array.C, C)


def test_vector_roundtrip(tmp_path):
    v = np.array([1.0, -2.5e-17, 3.141592653589793])
    path = tmp_path / "v.txt"
    cio.write_vector(path, v)
    assert np.array_equal(cio.read_vector(path), v)


def test_pgm_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(7, 9))
    path = tmp_path / "img.pgm"
    cio.write_pgm(path, img, maxval=255)
    back, maxval = cio.read_pgm(path)
    assert maxval == 255
    assert np.array_equal(back, img)


def test_pgm_ascii_and_16bit_roundtrip(tmp_path):
    img = np.array([[0, 1000], [65535, 42]])
    path = tmp_path / "img16.pgm"
    cio.write_pgm(path, img, maxval=65535)
    back, maxval = cio.read_pgm(path)
    assert maxval == 65535 and np.array_equal(back, img)
    path2 = tmp_path / "ascii.pgm"
    path2.write_bytes(b"P2\n2 2\n9\n0 5\n9 2\n")
    back2, maxval2 = cio.read_pgm(path2)
    assert maxval2 == 9 and np.array_equal(back2, [[0, 5], [9, 2]])


def test_pgm_comment_handling(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# a comment\n2 2\n255\n1 2\n3 4\n")
    arr, maxval = cio.read_pgm(path)
    assert np.array_equal(arr, [[1, 2], [3, 4]])


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.txt"
    write_labels(path, [(1, 2), (3, 4)], [(5, 6)])
    fg, bg = cio.read_labels(path)
    assert fg == [(1, 2), (3, 4)]
    assert bg == [(5, 6)]


def test_labels_reject_garbage(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("1 2 x\n")
    with pytest.raises(ValueError):
        cio.read_labels(path)


def test_instance_spec_roundtrip(tmp_path):
    spec = crqopt.InstanceSpec(
        n=100, m=10, alpha=2.0, beta=1000.0, zeta=0.9,
        g0_kind="geometric", eta=-5e-3,
        spectrum_kind="chebyshev_plus_isolated", iso_value=1.0, rng_seed=3,
    )
    path = tmp_path / "inst.spec"
    cio.write_instance_spec(path, spec)
    back = cio.read_instance_spec(path)
    assert back == spec


def test_instance_spec_defaults_the_optional_keys(tmp_path):
    path = tmp_path / "inst.spec"
    path.write_text("n=40\nm=4\nalpha=1.0\nbeta=20.0\nzeta=0.9\n")
    assert cio.read_instance_spec(path) == crqopt.InstanceSpec(n=40, m=4, alpha=1.0, beta=20.0,
                                                               zeta=0.9)


def test_instance_spec_names_a_missing_key(tmp_path):
    path = tmp_path / "inst.spec"
    path.write_text("n=40\nm=4\nalpha=1.0\nbeta=20.0\nseed=3\n")
    with pytest.raises(ValueError, match="zeta"):
        cio.read_instance_spec(path)


def test_csv_deterministic(tmp_path):
    rows = [{"k": 1, "x": 0.1 + 0.2}, {"k": 2, "x": float("nan")}]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cio.write_csv(p1, rows, ["k", "x"])
    cio.write_csv(p2, rows, ["k", "x"])
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.splitlines()[0] == "k,x"
    assert "0.30000000000000004" in text


def test_pgm_unsupported_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n1 1\n70000\n1\n")
    with pytest.raises(ValueError):
        cio.read_pgm(path)
