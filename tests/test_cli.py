import csv
import io
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from bivolt import TimeGrid, impulse_response
from bivolt.cli import (_emit_csv, run_command, signal_from_spec, system_from_document,
                        system_to_document)

from conftest import normal_system, overflowing_chain

SCALAR_DOC = {
    "n": 1, "m": 1, "p": 1,
    "A": [-1.0], "N": [[0.5]], "B": [1.0], "C": [1.0], "x0": [0.0],
}


@pytest.fixture
def scalar_doc_path(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(SCALAR_DOC))
    return str(path)


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestDocuments:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(21)
        doc = {
            "n": 3, "m": 2, "p": 1,
            "A": list(rng.standard_normal(9)),
            "N": [list(rng.standard_normal(9)) for _ in range(2)],
            "B": list(rng.standard_normal(6)),
            "C": list(rng.standard_normal(3)),
            "x0": list(rng.standard_normal(3)),
            "E": list((np.eye(3) + 0.1 * rng.standard_normal((3, 3))).ravel()),
        }
        first = system_from_document(doc)
        emitted = json.loads(json.dumps(system_to_document(first)))
        second = system_from_document(emitted)
        assert np.array_equal(first.A, second.A)
        assert np.array_equal(first.N, second.N)
        assert np.array_equal(first.B, second.B)
        assert np.array_equal(first.C, second.C)
        assert np.array_equal(first.x0, second.x0)
        assert np.array_equal(first.E, second.E)

    def test_bad_block_named(self):
        doc = dict(SCALAR_DOC, B=[1.0, 2.0])
        with pytest.raises(ValueError, match="B"):
            system_from_document(doc)

    def test_missing_key_named(self):
        doc = {k: v for k, v in SCALAR_DOC.items() if k != "C"}
        with pytest.raises(ValueError, match="C"):
            system_from_document(doc)

    @pytest.mark.parametrize("n, message", [
        (0, "n must be >= 1"), (None, "missing key 'n'"), ("two", "n must be an integer")])
    def test_bad_dimension_named(self, n, message):
        doc = {k: v for k, v in SCALAR_DOC.items() if k != "n"}
        with pytest.raises(ValueError, match=message):
            system_from_document(doc if n is None else dict(doc, n=n))

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 1, "m": ')
        assert run_command(["validate", "--system", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not valid JSON" in captured.err

    def test_csv_refuses_nan_before_writing(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        rows = [[1e-2, 0.5], [5e-3, float("nan")]]
        for out in (str(path), None):
            with pytest.raises(FloatingPointError, match="non-finite value nan in column error"):
                _emit_csv(out, ["eps", "error"], rows)
        assert not path.exists()
        assert capsys.readouterr().out == ""

    def test_signal_spec_kinds(self):
        grid = TimeGrid(0.0, 1.0, 1e-3)
        delta = signal_from_spec({"kind": "delta_eps", "eps": 0.01}, grid, 1)
        assert delta.values[0, 0] == pytest.approx(100.0)
        step = signal_from_spec({"kind": "step", "amplitude": 2.0}, grid, 1)
        assert step.at(0.5)[0] == 2.0
        sine = signal_from_spec({"kind": "sine", "frequency": 2.0}, grid, 1)
        assert sine.at(0.25)[0] == pytest.approx(math.sin(0.5), abs=1e-6)
        zero = signal_from_spec({"kind": "zero"}, grid, 2)
        assert zero.values.shape == (grid.nodes, 2)
        samples = signal_from_spec(
            {"kind": "samples", "t": [0.0, 1.0], "u": [[0.0], [2.0]]}, grid, 1)
        assert samples.at(0.5)[0] == pytest.approx(1.0)

    def test_unknown_signal_kind(self):
        grid = TimeGrid(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            signal_from_spec({"kind": "sawtooth"}, grid, 1)


class TestValidateCommand:
    def test_ok(self, scalar_doc_path, capsys):
        assert run_command(["validate", "--system", scalar_doc_path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad_b_reports_and_exits_2(self, tmp_path, capsys):
        doc = dict(SCALAR_DOC, B=[1.0, 2.0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_command(["validate", "--system", str(path)]) == 2
        assert "B" in capsys.readouterr().err

    def test_singular_e_exits_2(self, tmp_path, capsys):
        doc = dict(SCALAR_DOC, E=[0.0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_command(["validate", "--system", str(path)]) == 2
        assert "singular" in capsys.readouterr().err

    def test_emit_round_trips(self, scalar_doc_path, tmp_path, capsys):
        out = tmp_path / "normalized.json"
        assert run_command(["validate", "--system", scalar_doc_path,
                            "--emit", str(out)]) == 0
        emitted = json.loads(out.read_text())
        assert emitted["A"] == [-1.0]
        capsys.readouterr()


class TestImpulseCommand:
    def test_scalar_value(self, scalar_doc_path, capsys):
        code = run_command(["impulse", "--system", scalar_doc_path,
                            "--mu", "1", "--times", "1"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header[:2] == ["t", "g1"]
        assert float(rows[0][1]) == pytest.approx(0.4773024370823822,
                                                  abs=1e-12)

    def test_full_precision_round_trip(self, scalar_doc_path, capsys):
        run_command(["impulse", "--system", scalar_doc_path,
                     "--mu", "1", "--times", "0.73", "--orders", "2"])
        header, rows = read_csv(capsys.readouterr().out)
        sys_ = system_from_document(SCALAR_DOC)
        expected = impulse_response(sys_, [1.0], 0.73)[0]
        assert float(rows[0][header.index("g1")]) == expected

    def test_orders_past_170_give_csv(self, scalar_doc_path, capsys):
        code = run_command(["impulse", "--system", scalar_doc_path, "--mu", "1",
                            "--times", "1", "--orders", "200"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header[-1] == "g_k200"
        assert len(rows[0]) == 202 and float(rows[0][-1]) == 0.0

    def test_non_finite_result_exits_1(self, tmp_path, capsys):
        doc = {"n": 1, "m": 1, "p": 1, "A": [1e6], "N": [[1e6]],
               "B": [1.0], "C": [1.0]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code = run_command(["impulse", "--system", str(path), "--mu", "1",
                            "--times", "1", "--orders", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err
        assert "expm overflow" in captured.err

    def test_overflowing_argument_exits_1(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(SCALAR_DOC, A=[1e308])))
        code = run_command(["impulse", "--system", str(path), "--mu", "1",
                            "--times", "10"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err


class TestKernelCommand:
    def test_boundary_note(self, scalar_doc_path, capsys):
        code = run_command(["kernel", "--system", scalar_doc_path,
                            "--kind", "tri", "--t", "1,1"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        row = dict(zip(header, rows[0]))
        assert float(row["y1"]) == pytest.approx(0.25 * math.exp(-1.0),
                                                 rel=1e-12)
        assert row["region"] == "surface"
        assert int(row["n"]) == 1
        assert float(row["factor"]) == 0.5

    @pytest.mark.parametrize("kind", ["tri", "reg", "sym"])
    def test_nan_tolerance_exits_2(self, scalar_doc_path, capsys, kind):
        code = run_command(["kernel", "--system", scalar_doc_path,
                            "--kind", kind, "--t", "2,1", "--tol", "nan"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and >= 0" in captured.err

    def test_symmetric_kind(self, scalar_doc_path, capsys):
        code = run_command(["kernel", "--system", scalar_doc_path,
                            "--kind", "sym", "--t", "1,2"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert float(rows[0][header.index("y1")]) == pytest.approx(
            0.25 * math.exp(-2.0), rel=1e-12)


class TestTfCommand:
    def test_value_and_margin(self, tmp_path, capsys):
        doc = dict(SCALAR_DOC, N=[[2.0]])
        path = tmp_path / "gain2.json"
        path.write_text(json.dumps(doc))
        code = run_command(["tf", "--system", str(path), "--kind", "reg",
                            "--s", "1+0i,2+0i"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        row = dict(zip(header, rows[0]))
        assert float(row["G1_re"]) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert float(row["G1_im"]) == 0.0
        assert float(row["roc_margin"]) == pytest.approx(2.0)

    def test_complex_parsing(self, scalar_doc_path, capsys):
        code = run_command(["tf", "--system", scalar_doc_path, "--kind", "tri",
                            "--s", "0.5-0.25i"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        row = dict(zip(header, rows[0]))
        assert float(row["s1_re"]) == 0.5
        assert float(row["s1_im"]) == -0.25

    def test_pole_hit_exits_1(self, scalar_doc_path, capsys):
        code = run_command(["tf", "--system", scalar_doc_path, "--kind", "reg",
                            "--s=-1+0i"])
        assert code == 1
        assert "pole" in capsys.readouterr().err


class TestSimulateCommand:
    def test_direct_step(self, scalar_doc_path, tmp_path, capsys):
        signal = tmp_path / "step.json"
        signal.write_text(json.dumps({"kind": "step"}))
        code = run_command(["simulate", "--system", scalar_doc_path,
                            "--signal", str(signal), "--grid", "0:1:0.001"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["t", "y1"]
        assert len(rows) == 1001

    def test_cascade_columns(self, scalar_doc_path, tmp_path, capsys):
        signal = tmp_path / "sine.json"
        signal.write_text(json.dumps({"kind": "sine"}))
        code = run_command(["simulate", "--system", scalar_doc_path,
                            "--signal", str(signal), "--grid", "0:1:0.01",
                            "--method", "both", "--orders", "3"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["t", "y1", "y_k1", "y_k2", "y_k3", "total"]
        last = [float(v) for v in rows[-1]]
        assert last[5] == pytest.approx(last[2] + last[3] + last[4], rel=1e-12)
        assert last[1] == pytest.approx(last[5], rel=1e-3)

    def test_cascade_without_orders_exits_2(self, scalar_doc_path, tmp_path,
                                            capsys):
        signal = tmp_path / "sine.json"
        signal.write_text(json.dumps({"kind": "sine"}))
        code = run_command(["simulate", "--system", scalar_doc_path,
                            "--signal", str(signal), "--grid", "0:1:0.01",
                            "--method", "cascade"])
        assert code == 2
        capsys.readouterr()

    def test_coarse_delta_exits_1(self, scalar_doc_path, tmp_path, capsys):
        signal = tmp_path / "delta.json"
        signal.write_text(json.dumps({"kind": "delta_eps", "eps": 1e-4}))
        code = run_command(["simulate", "--system", scalar_doc_path,
                            "--signal", str(signal), "--grid", "0:1:0.01"])
        assert code == 1
        assert "coarse" in capsys.readouterr().err

    def test_rk4_overflow_exits_1(self, tmp_path, capsys):
        # RK4 amplifies the free mode of a = -1e4 about 4e6-fold per step of 1e-2
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(dict(SCALAR_DOC, A=[-1e4])))
        signal = tmp_path / "step.json"
        signal.write_text(json.dumps({"kind": "step"}))
        code = run_command(["simulate", "--system", str(path),
                            "--signal", str(signal), "--grid", "0:1:0.01",
                            "--method", "both", "--orders", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err
        assert "non-finite at step" in captured.err

    def test_output_overflow_exits_1(self, tmp_path, capsys):
        # the state e^{50 t} stays finite; C x passes the largest double at t = 0.339
        path = tmp_path / "loud.json"
        path.write_text(json.dumps(dict(SCALAR_DOC, A=[50.0], C=[1e300], x0=[8.0])))
        signal = tmp_path / "zero.json"
        signal.write_text(json.dumps({"kind": "zero"}))
        code = run_command(["simulate", "--system", str(path),
                            "--signal", str(signal), "--grid", "0:1:0.001"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: RK4 output became non-finite "
                                "at step 339 (t = 0.339, dt = 0.001)\n")

    def test_out_file(self, scalar_doc_path, tmp_path):
        signal = tmp_path / "zero.json"
        signal.write_text(json.dumps({"kind": "zero"}))
        out = tmp_path / "run.csv"
        code = run_command(["simulate", "--system", scalar_doc_path,
                            "--signal", str(signal), "--grid", "0:1:0.1",
                            "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out.read_text())
        assert header == ["t", "y1"]
        assert all(float(r[1]) == 0.0 for r in rows)


class TestVerifyCommands:
    def test_laplace(self, tmp_path, capsys):
        doc = dict(SCALAR_DOC, N=[[2.0]])
        path = tmp_path / "gain2.json"
        path.write_text(json.dumps(doc))
        code = run_command(["verify", "laplace", "--system", str(path),
                            "--kind", "reg", "--s", "1+0i,2+0i",
                            "--T", "30", "--panels", "60"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        row = dict(zip(header, rows[0]))
        assert float(row["quad1_re"]) == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert row["within_bound"] == "1"

    def test_real_frequencies_write_zero_imaginary_parts(self, tmp_path, capsys):
        # the system has an eigenbasis with complex eigenvectors, in which the
        # quadrature and the transfer function are formed
        sys_ = normal_system(4, m=2, p=2)
        assert np.iscomplexobj(sys_._eigenbasis.V)
        path = tmp_path / "normal.json"
        path.write_text(json.dumps(system_to_document(sys_)))
        common = ["--system", str(path), "--kind", "reg", "--channels", "1,2",
                  "--s", "1+0i,2+0i"]
        assert run_command(["verify", "laplace", *common, "--T", "16", "--panels", "32"]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        row = dict(zip(header, rows[0]))
        for name in ("quad1_im", "quad2_im", "closed1_im", "closed2_im"):
            assert row[name] == "0.0"
        assert run_command(["tf", *common]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        row = dict(zip(header, rows[0]))
        assert row["G1_im"] == row["G2_im"] == "0.0"

    def test_laplace_order_cap_exits_2(self, tmp_path, capsys):
        doc = dict(SCALAR_DOC, N=[[2.0]])
        path = tmp_path / "gain2.json"
        path.write_text(json.dumps(doc))
        code = run_command(["verify", "laplace", "--system", str(path),
                            "--kind", "reg", "--s", "1+0i,1+0i,1+0i,1+0i",
                            "--T", "10", "--panels", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "supports kernel orders k <= 3, got k = 4" in captured.err

    @pytest.mark.parametrize("T", ["nan", "inf"])
    def test_laplace_non_finite_horizon_exits_2(self, T, scalar_doc_path, capsys):
        code = run_command(["verify", "laplace", "--system", scalar_doc_path,
                            "--kind", "reg", "--s", "1+0i", "--T", T])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "truncation horizon T must be finite and > 0" in captured.err

    def test_laplace_overflow_exits_1(self, tmp_path, capsys):
        A, B, C = overflowing_chain()
        doc = {"n": 30, "m": 1, "p": 1, "A": A.ravel().tolist(),
               "N": [np.eye(30).ravel().tolist()], "B": B.ravel().tolist(),
               "C": C.ravel().tolist()}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code = run_command(["verify", "laplace", "--system", str(path),
                            "--kind", "reg", "--s", "1+0i",
                            "--T", "32", "--panels", "32"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err
        assert "not finite on panel 15" in captured.err

    def test_eps_sweep(self, scalar_doc_path, capsys):
        code = run_command(["verify", "eps-sweep", "--system", scalar_doc_path,
                            "--mu", "1", "--eps", "1e-2,5e-3",
                            "--times", "0.5,1"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["eps", "error", "ratio", "fitted_order"]
        assert float(rows[1][2]) == pytest.approx(2.0, abs=0.5)

    def test_eps_sweep_overflowing_pulse_exits_1(self, scalar_doc_path, capsys):
        # N / eps overflows at eps = 1e-310: a numerical failure, not a usage error
        code = run_command(["verify", "eps-sweep", "--system", scalar_doc_path,
                            "--mu", "1", "--eps", "1e-2,1e-310", "--times", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure: expm overflow: ||M||_1 is not finite" in captured.err

    def test_eps_sweep_on_zero_response_exits_2(self, scalar_doc_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_command(["verify", "eps-sweep", "--system", scalar_doc_path,
                                "--mu", "0", "--eps", "1e-2,5e-3",
                                "--times", "0.5,1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "identically zero" in captured.err

    def test_symmetry(self, scalar_doc_path, capsys):
        code = run_command(["verify", "symmetry", "--system", scalar_doc_path,
                            "--k", "3", "--samples", "20", "--seed", "1"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert float(rows[0][header.index("max_relative_deviation")]) <= 1e-12

    def test_bounds(self, capsys):
        code = run_command(["verify", "bounds", "--samples", "500",
                            "--range=-5,5", "--seed", "3"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert rows[0][header.index("violations")] == "0"

    def test_aux2d(self, scalar_doc_path, capsys):
        code = run_command(["verify", "aux2d", "--system", scalar_doc_path,
                            "--kind", "tri", "--t1", "1", "--t2", "1",
                            "--eps", "2e-2,1e-2", "--nodes", "101"])
        assert code == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["eps", "value"]
        assert rows[-1][0] == "0.0"
        assert float(rows[-1][1]) == pytest.approx(0.25 * math.exp(-1.0),
                                                   rel=5e-3)


class TestImplicitSystems:
    def test_e_folded_at_load(self, tmp_path, capsys):
        # E = 2 halves A, N, B; the impulse value must match the folded system
        doc = dict(SCALAR_DOC, A=[-2.0], N=[[1.0]], B=[2.0], E=[2.0])
        path = tmp_path / "implicit.json"
        path.write_text(json.dumps(doc))
        assert run_command(["validate", "--system", str(path)]) == 0
        assert "E folded" in capsys.readouterr().out
        run_command(["impulse", "--system", str(path), "--mu", "1",
                     "--times", "1", "--orders", "1"])
        header, rows = read_csv(capsys.readouterr().out)
        explicit = system_from_document(SCALAR_DOC)
        expected = impulse_response(explicit, [1.0], 1.0)[0]
        assert float(rows[0][1]) == pytest.approx(expected, rel=1e-14)


class TestDispatch:
    def test_unknown_command_exits_2(self, capsys):
        assert run_command(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_file_exits_2(self, capsys):
        assert run_command(["validate", "--system", "/no/such/file.json"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert run_command(["--help"]) == 0
        assert run_command(["verify", "--help"]) == 0
        capsys.readouterr()


class TestArgumentParsing:
    @pytest.mark.parametrize("argv, option", [
        (["kernel", "--kind", "diag", "--t", "1"], "--kind"),
        (["tf", "--kind", "diag", "--s", "1+0i"], "--kind"),
        (["verify", "laplace", "--kind", "diag", "--s", "1+0i"], "--kind"),
        (["verify", "laplace", "--kind", "sym", "--s", "1+0i"], "--kind"),
        (["verify", "aux2d", "--kind", "diag", "--t1", "1", "--t2", "1",
          "--eps", "1e-2"], "--kind"),
        (["verify", "aux2d", "--kind", "sym", "--t1", "1", "--t2", "1",
          "--eps", "1e-2"], "--kind"),
        (["tf", "--kind", "reg", "--s", "1+0i,2+2x"], "--s"),
        (["verify", "laplace", "--kind", "reg", "--s", "1+0i,2x"], "--s"),
        (["impulse", "--mu", "1", "--times", "0.5,x"], "--times"),
        (["verify", "eps-sweep", "--mu", "1", "--eps", "1e-2", "--times", "1,,y"],
         "--times"),
        (["impulse", "--mu", "one", "--times", "1"], "--mu"),
        (["verify", "eps-sweep", "--mu", "1;2", "--eps", "1e-2", "--times", "1"],
         "--mu"),
        (["verify", "aux2d", "--kind", "tri", "--t1", "1", "--t2", "1",
          "--eps", "1e-2", "--pulse-div", "0"], "--pulse-div"),
        (["impulse", "--mu", "1", "--times", "1", "--orders", "-2"], "--orders"),
        (["impulse", "--mu", "1", "--times", ","], "--times"),
        (["verify", "bounds", "--samples", "0"], "--samples"),
        (["verify", "bounds", "--samples", "-5"], "--samples"),
        (["verify", "symmetry", "--k", "2", "--samples", "0"], "--samples"),
        (["verify", "bounds", "--samples", "2.5"], "--samples"),
        (["simulate", "--grid", "0:1"], "--grid"),
        (["simulate", "--grid", "0:1:0.1:2"], "--grid"),
    ])
    def test_malformed_argument_exits_2(self, argv, option, scalar_doc_path, capsys):
        assert run_command(argv + ["--system", scalar_doc_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {option}" in captured.err

    def test_empty_channels_mean_the_default(self, scalar_doc_path, capsys):
        argv = ["tf", "--system", scalar_doc_path, "--kind", "tri", "--s", "1+0i,2+0i"]
        assert run_command(argv) == 0
        default = capsys.readouterr().out
        assert run_command(argv + ["--channels", ""]) == 0
        assert capsys.readouterr().out == default


class TestMalformedDocuments:
    @pytest.mark.parametrize("doc", [
        [1, 2],
        "step",
        {"kind": "step", "amplitude": [1, 2]},
        {"kind": "sine", "frequency": {"hz": 1}},
        {"kind": "sine", "amplitude": "loud"},
        {"kind": "delta_eps", "eps": None},
        {"kind": "delta_eps"},
        {"kind": "step", "mu": {"a": 1}},
        {"kind": "samples", "t": [0, 1], "u": {"a": 1}},
        {"kind": "delta_eps", "eps": 1e400},
    ])
    def test_signal_document_exits_2(self, doc, scalar_doc_path, tmp_path, capsys):
        signal = tmp_path / "signal.json"
        signal.write_text(json.dumps(doc))
        code = run_command(["simulate", "--system", scalar_doc_path,
                            "--signal", str(signal), "--grid", "0:1:0.01"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("argv", [
        ["kernel", "--kind", "tri", "--t", "1,1", "--out"],
        ["validate", "--emit"]], ids=["out", "emit"])
    def test_unwritable_output_exits_2(self, argv, scalar_doc_path, tmp_path, capsys):
        path = str(tmp_path / "missing" / "result")
        assert run_command(argv + [path, "--system", scalar_doc_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}")

    @pytest.mark.parametrize("command", [
        ["validate"], ["impulse", "--mu", "1", "--times", "1"]])
    def test_system_document_must_be_an_object(self, command, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([SCALAR_DOC]))
        assert run_command(command + ["--system", str(path)]) == 2
        assert "does not hold a JSON object" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli():
    """The README's CLI section: its system document, its example signal
    document and the arguments of each `bivolt` line of its shell block."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    system = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    signal = re.search(r'`(\{"kind": .*?\})`', section).group(1)
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("bivolt ")]
    return system, signal, commands


README_SYSTEM, README_SIGNAL, README_COMMANDS = readme_cli()


def command_name(argv):
    return " ".join(argv[:2]) if argv[0] == "verify" else argv[0]


def test_readme_shows_every_command():
    assert {command_name(argv) for argv in README_COMMANDS} == {
        "validate", "simulate", "impulse", "kernel", "tf", "verify laplace",
        "verify eps-sweep", "verify symmetry", "verify bounds", "verify aux2d"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=command_name)
def test_readme_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "sys.json").write_text(README_SYSTEM)
    (tmp_path / "sig.json").write_text(README_SIGNAL)
    monkeypatch.chdir(tmp_path)
    code = run_command(argv)
    assert code == 0, capsys.readouterr().err
