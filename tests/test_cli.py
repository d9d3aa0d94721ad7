"""Session scripts and the command-line entry point.

run_script is exercised directly for statement coverage; the process
entry is exercised through subprocess to pin exit codes, stderr
formatting, and byte-level determinism.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from identity import GOLDEN_SHA256
from supergeom.script import run_script
from supergeom.serialize import from_json
from supergeom import Morphism, SuperMatrix, poly


def run(text, **kw):
    return run_script(textwrap.dedent(text), **kw)


def lines(result):
    return result.output.splitlines()


# -- statements ---------------------------------------------------------------


def test_empty_script():
    result = run("")
    assert result.output == ""
    assert result.ok
    assert result.exports == {}


def test_comments_and_blank_lines_ignored():
    result = run("""
        # nothing but commentary

        # here too
    """)
    assert result.output == ""
    assert result.ok


def test_eval_needs_a_context():
    result = run("eval t")
    assert not result.ok
    assert result.errors == ("error: line 1: no context declared yet",)


def test_eval_normalizes():
    result = run("""
        context even=[t] odd=[theta1, theta2]
        eval theta2*theta1
        eval (t + theta1*theta2)^2
        eval 1/2 * t
    """)
    assert lines(result) == [
        "-theta1*theta2",
        "t^2 + 2*t*theta1*theta2",
        "1/2*t",
    ]


def test_let_binds_for_export():
    result = run("""
        context even=[] odd=[theta1, theta2]
        let w = theta1*theta2
        export w
    """)
    assert result.ok
    assert result.exports["w"]["terms"] == [
        {"coeff": "1", "even": [], "odd": [1, 2]}
    ]


def test_let_bindings_resolve_in_expressions():
    result = run("""
        context even=[t] odd=[theta1, theta2]
        let w = theta1*theta2
        let f = t + w
        eval f^2
        matrix A dims 1|1 -> 1|1 rows [f, 0; 0, 1]
        ber A
    """)
    assert lines(result) == [
        "t^2 + 2*t*theta1*theta2",
        "t + theta1*theta2",
    ]


def test_generator_shadows_binding():
    result = run("""
        context even=[t] odd=[]
        let t = t + 1
        eval t
    """)
    assert lines(result) == ["t"]


def test_binding_survives_a_redeclared_context():
    # the same names give the same context, so f still resolves
    result = run("""
        context even=[t] odd=[a]
        let f = t^2 + t*a
        context even=[t] odd=[a]
        eval f*a
    """)
    assert result.ok
    assert lines(result) == ["t^2*a"]


def test_binding_from_other_context_rejected():
    result = run("""
        context even=[t] odd=[]
        let f = t^2
        context even=[x] odd=[]
        eval f
    """)
    assert "'f' is bound over a different context" in result.errors[0]


def test_matrix_commands():
    result = run("""
        context even=[t] odd=[theta1, theta2]
        matrix A dims 1|1 -> 1|1 rows [1 + theta1*theta2, theta1; theta2, 2]
        ber A
        strace A
        srank A
        inv A
    """)
    assert lines(result) == [
        "1/2 + 1/4*theta1*theta2",
        "-1 + theta1*theta2",
        "1|1",
        "dims 1|1 -> 1|1",
        "[1 - 1/2*theta1*theta2, -1/2*theta1]",
        "[-1/2*theta2, 1/2 - 1/4*theta1*theta2]",
    ]


def test_odd_matrix_statement():
    result = run("""
        context even=[t] odd=[theta1, theta2]
        matrix B dims 1|1 -> 1|1 odd rows [theta1, t; 1, theta2]
        strace B
    """)
    assert result.ok
    assert lines(result) == ["theta1 + theta2"]


def test_matrix_shape_error():
    result = run("""
        context even=[t] odd=[theta1]
        matrix A dims 1|1 -> 1|1 rows [1, 0; 0]
    """)
    assert not result.ok
    assert "error: line 3" in result.errors[0]


def test_morphism_pullback_jacobian_classify():
    result = run("""
        context M even=[t] odd=[theta1, theta2]
        morphism chart : M -> M [t + theta1*theta2, theta1, theta2]
        pullback chart t^3
        jacobian chart (1)
        classify chart (1, 0, 0)
    """)
    assert lines(result) == [
        "t^3 + 3*t^2*theta1*theta2",
        "dims 1|2 -> 1|2",
        "[1, 0, 0]",
        "[0, 1, 0]",
        "[0, 0, 1]",
        "diffeo",
    ]


def test_classify_prints_none_when_degenerate():
    result = run("""
        context L even=[t] odd=[]
        morphism sq : L -> L [t^2]
        classify sq (0)
    """)
    assert lines(result) == ["none"]


def test_point_arity_checked():
    result = run("""
        context M even=[t] odd=[theta1, theta2]
        morphism chart : M -> M [t, theta1, theta2]
        jacobian chart (1, 0)
    """)
    assert "expected 1 or 3 coordinates, got 2" in result.errors[0]

    result = run("""
        context M even=[t] odd=[theta1, theta2]
        morphism chart : M -> M [t, theta1, theta2]
        jacobian chart (1, 0, 1/2)
    """)
    assert "odd coordinates of a point must be zero" in result.errors[0]


def test_point_arity_names_one_count_without_odd_generators():
    result = run("""
        context M even=[t] odd=[]
        variety V ideal=[t] point=()
    """)
    assert result.errors == ("error: line 3: expected 1 coordinates, got 0",)


def test_a_blank_ideal_is_the_whole_space():
    result = run("""
        context M even=[t] odd=[theta]
        variety V ideal=[] point=(0)
        tangent V
    """)
    assert result.ok and lines(result) == ["dim 1|1"]


def test_a_group_on_the_point_passes_its_axioms():
    result = run("""
        context Z even=[] odd=[]
        group G context=Z mu=[] unit=() inv=[]
        axioms G
        group H context=Z mu=[] unit=()
        axioms H
    """)
    assert result.ok
    assert lines(result) == ["associativity: pass", "unit: pass", "inverse: pass",
                             "associativity: pass", "unit: pass"]


def test_a_morphism_onto_the_point_has_no_images():
    result = run("""
        context E even=[] odd=[]
        context M even=[t] odd=[theta]
        morphism f : M -> E []
        jacobian f (0)
        classify f (0)
    """)
    assert result.ok
    assert lines(result) == ["dims 0|0 -> 1|1", "[]", "[]", "submersion"]


def test_a_field_on_the_point_has_no_coefficients():
    result = run("""
        context Z even=[] odd=[]
        field X = []
        bracket X X
        involutive X
        context M even=[t] odd=[]
        field Y = []
    """, keep_going=True)
    assert lines(result) == ["0", "Integrable"]
    assert result.errors == ("error: line 7: expected 1 coefficients, got 0",)


def test_a_matrix_on_the_point_has_no_rows():
    result = run("""
        context Z even=[] odd=[]
        matrix A dims 0|0 -> 0|0 rows []
        ber A
        strace A
        srank A
        export A
    """)
    assert result.ok
    assert lines(result)[:3] == ["1", "0", "0|0"]
    assert result.exports["A"]["entries"] == []


GROUP_PREFIX = """
    context G even=[t] odd=[theta]
    group g context=G mu=[t + tp + theta*thetap,
                          theta + thetap] unit=(0) inv=[-t, -theta]
"""


def test_group_axioms_and_livf():
    result = run(GROUP_PREFIX + """
        axioms g
        livf d/dt
        livf d/dtheta g
    """)
    assert lines(result) == [
        "associativity: pass",
        "unit: pass",
        "inverse: pass",
        "d/dt",
        "-theta*d/dt + d/dtheta",
    ]


def test_corrupted_law_reports_residual():
    result = run("""
        context G even=[t] odd=[theta]
        group bad context=G mu=[t + tp + theta*thetap, theta] unit=(0)
        axioms bad
    """)
    assert lines(result) == [
        "associativity: FAIL (t: theta*thetapp - thetap*thetapp)",
        "unit: FAIL (left at theta: -thetap)",
    ]


def test_livf_needs_a_group():
    result = run("""
        context G even=[t] odd=[theta]
        livf d/dtheta
    """)
    assert "no group declared yet" in result.errors[0]


def test_livf_unknown_coordinate():
    result = run(GROUP_PREFIX + "livf d/dz\n")
    assert "unknown generator 'z' in the group context" in result.errors[0]


def test_fields_bracket_involutive():
    result = run("""
        context G even=[t] odd=[theta]
        field V1 = [1, 0]
        field V2 = [-theta, 1]
        bracket V2 V2
        involutive V1 V2
    """)
    assert lines(result) == ["-2*d/dt", "Integrable"]


def test_involutive_other_verdicts():
    result = run("""
        context R21 even=[t1, t2] odd=[theta1]
        field chi = [0, theta1, 1]
        involutive chi
        field E1 = [1, 0, 0]
        field tE2 = [0, t1, 0]
        involutive E1 tE2
    """)
    assert lines(result) == ["NotIntegrable", "Indeterminate"]


def test_field_parity_inference_errors():
    result = run("""
        context G even=[t] odd=[theta]
        field F = [t + theta, 0]
    """)
    assert "not parity homogeneous" in result.errors[0]

    result = run("""
        context G even=[t] odd=[theta]
        field F = [theta, theta]
    """)
    assert "do not give the field one parity" in result.errors[0]

    result = run("""
        context G even=[t] odd=[theta]
        field F = [1, 0, 0]
    """)
    assert "expected 2 coefficients, got 3" in result.errors[0]


def test_tangent_command():
    result = run("""
        context P even=[x, y] odd=[xi, eta]
        variety W ideal=[x*xi + y*eta] point=(1, 1)
        tangent W
    """)
    assert lines(result) == ["Xi + Eta = 0", "dim 2|1"]


def test_variety_rejects_off_ideal_point():
    result = run("""
        context P even=[x, y] odd=[xi, eta]
        variety W ideal=[x^2 + y^2 - 1] point=(1, 1)
        tangent W
    """)
    assert not result.ok
    assert "does not vanish" in result.errors[0]


def test_lie_command():
    result = run("""
        lie SL 1|1
        lie GL 1|1
        lie OSp 1|2
    """)
    assert lines(result) == [
        "p11 - s11 = 0",
        "no constraints",
        "p11 = 0",
        "s11 + s22 = 0",
        "q11 - r21 = 0",
        "q12 + r11 = 0",
    ]


def test_lie_rejects_odd_osp_dims():
    result = run("lie OSp 1|1")
    assert "even number of odd dimensions" in result.errors[0]


def test_export_matrix_and_group_roundtrip():
    result = run(GROUP_PREFIX + """
        matrix A dims 1|1 -> 1|1 rows [1, theta; theta, 2]
        export A
        export g
    """)
    assert result.ok
    assert isinstance(from_json(result.exports["A"]), SuperMatrix)
    back = from_json(result.exports["g"])
    assert back.mu == Morphism(
        back.mu.source, back.coords,
        [back.mu.source.var("t") + back.mu.source.var("tp")
         + back.mu.source.var("theta") * back.mu.source.var("thetap"),
         back.mu.source.var("theta") + back.mu.source.var("thetap")],
    )
    # the report line is the compact JSON
    assert json.loads(lines(result)[0])["type"] == "matrix"


def test_export_unbound_name():
    result = run("export nothing")
    assert "name 'nothing' is not bound" in result.errors[0]


def test_unknown_statement():
    result = run("frobnicate t")
    assert result.errors == ("error: line 1: unknown statement 'frobnicate'",)


def test_name_kind_mismatch():
    result = run("""
        context G even=[t] odd=[]
        let f = t
        ber f
    """)
    assert "'f' is a poly, expected a matrix" in result.errors[0]


def test_stops_at_first_error_by_default():
    result = run("""
        context G even=[t] odd=[]
        eval q
        eval w
        eval t
    """)
    assert len(result.errors) == 1
    assert result.output == ""


def test_keep_going_collects_all_errors():
    result = run("""
        context G even=[t] odd=[]
        eval q
        eval w
        eval t
    """, keep_going=True)
    assert len(result.errors) == 2
    assert lines(result) == ["t"]


def test_expression_errors_carry_position():
    result = run("""
        context G even=[t] odd=[]
        eval t +
    """)
    assert result.errors[0].startswith("error: line 3, column")


# Each line has two faults.  The parser multiplies through the ring as
# it reads, so it reports the first fault it reaches, ring caps included,
# where reading the whole line before evaluating it would report the
# stray ')' or the missing term.  The power on the last line is built,
# within the term cap, before its stray ')' is seen.
FIRST_FAULTS = [
    ("eval foo )", "error: line 2, column 1: unknown generator 'foo'"),
    ("eval g + )", "error: line 4, column 1: unknown generator 'g'"),
    ("eval t^2000 +", "error: line 6: exponent 2000 is above the cap of 1000"),
    ("eval (1+t+s+u)^36 )",
     "error: line 8, column 14: unexpected ')' after expression"),
]


def test_a_line_with_several_faults_reports_the_first():
    script = ["context M even=[t, s, u] odd=[]"]
    for line, _ in FIRST_FAULTS:
        script += [line, "eval t"]
    proc = cli("--keep-going", stdin="\n".join(script) + "\n")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [error for _, error in FIRST_FAULTS]
    assert proc.stdout == "t\n" * len(FIRST_FAULTS)


@pytest.mark.parametrize("nested", [
    "(" * 3000 + "t" + ")" * 3000,
    "-" * 3000 + "t",
], ids=["parentheses", "minuses"])
def test_deep_nesting_is_a_script_error(nested):
    result = run_script(
        "context G even=[t] odd=[]\neval " + nested + "\neval t\n",
        keep_going=True,
    )
    assert len(result.errors) == 1
    assert result.errors[0].startswith("error: line 2, column")
    assert "nested deeper" in result.errors[0]
    assert lines(result) == ["t"]


def test_nesting_depth_is_released_after_each_group():
    # 150 groups side by side never nest deeper than one level
    side_by_side = " + ".join(["(t)"] * 75 + ["-t^2"] * 75)
    result = run_script("context G even=[t] odd=[]\neval " + side_by_side + "\n")
    assert result.errors == ()
    assert lines(result) == ["-75*t^2 + 75*t"]


def test_long_power_chain_lowers():
    result = run_script("context G even=[t] odd=[]\neval t" + "^1" * 3000 + "\n")
    assert lines(result) == ["t"]


def test_exponent_above_the_cap_is_a_script_error():
    # without the cap this power multiplies out for minutes
    result = run("""
        context M even=[t] odd=[theta1]
        morphism f : M -> M [t^100000000, theta1]
        eval t^2
    """, keep_going=True)
    assert len(result.errors) == 1
    assert result.errors[0].startswith("error: line 3: exponent 100000000")
    assert "cap" in result.errors[0]
    assert lines(result) == ["t^2"]


# -- process entry ---------------------------------------------------------------

SCRIPT = """\
context M even=[t] odd=[theta1, theta2]
morphism chart : M -> M [t + theta1*theta2, theta1, theta2]
pullback chart t^2
matrix A dims 1|1 -> 1|1 rows [2, theta1; theta2, 1]
ber A
export A
"""


def cli(*args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "supergeom", *args],
        input=stdin, capture_output=True, text=True, timeout=120,
    )


def test_cli_runs_script_file(tmp_path):
    path = tmp_path / "session.sg"
    path.write_text(SCRIPT)
    proc = cli("--script", str(path))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[:2] == [
        "t^2 + 2*t*theta1*theta2",
        "2 - theta1*theta2",
    ]


def test_cli_reads_stdin():
    proc = cli(stdin="context G even=[t] odd=[]\neval t^2\n")
    assert proc.returncode == 0
    assert proc.stdout == "t^2\n"


def test_cli_deterministic_output(tmp_path):
    path = tmp_path / "session.sg"
    path.write_text(SCRIPT)
    first = cli("--script", str(path))
    second = cli("--script", str(path))
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()


# sha256 of the stdout of the golden session and of the README session
# (from "context M" through "export A"), which run ber, inv and srank
# among the other statements: a kernel change that keeps the values must
# not move one byte of either
ROOT = Path(__file__).resolve().parent.parent
README_SHA256 = "5fcdab416bcb82319247959a73f4e703c593bd9dc72bf9a134f898bb5560792b"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_cli_golden_session_bytes():
    proc = cli("--script", str(ROOT / "demos" / "golden_session.sg"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sha256(proc.stdout) == GOLDEN_SHA256


def test_cli_golden_session_bytes_under_two_hash_seeds():
    # hash(ctx) follows object identity and feeds SuperPoly.__hash__, so
    # pin that no output depends on hash order
    path = str(ROOT / "demos" / "golden_session.sg")
    procs = [
        subprocess.run(
            [sys.executable, "-m", "supergeom", "--script", path],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("0", "1")
    ]
    for proc in procs:
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256
    assert procs[0].stdout == procs[1].stdout


def test_golden_session_bytes_when_every_memo_holds_two_entries(monkeypatch):
    # a miss at two entries empties the memo, so the session evicts the
    # odd words, the sign masks and every context's texts and substitution
    # plans over and over, plans in the middle of a pullback, axioms or
    # livf; the memos start empty, since a context's memos are shared with
    # every other test in its signature
    monkeypatch.setattr(poly, "MAX_CACHE", 2)
    contexts = list(poly._CONTEXTS.values())
    memos = [poly._WORDS, poly._SWAP_PARITY]
    memos += [memo for ctx in contexts for memo in (ctx._texts, ctx._plans)]
    for memo in memos:
        memo.clear()
    text = (ROOT / "demos" / "golden_session.sg").read_text()
    result = run_script(text)
    assert result.errors == ()
    assert sha256(result.output) == GOLDEN_SHA256
    memos += [memo for ctx in poly._CONTEXTS.values() for memo in (ctx._texts, ctx._plans)]
    assert max(len(memo) for memo in memos) <= 2


def test_cli_readme_session_bytes():
    readme = (ROOT / "README.md").read_text()
    start = readme.index("context M even=[t]")
    end = readme.index("export A", start) + len("export A")
    proc = cli(stdin=readme[start:end] + "\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sha256(proc.stdout) == README_SHA256


# The body [[1, 2], [3, 4]] has a nonzero cofactor at every position, so
# a cofactor that loses its sign or its place in the body inverse moves
# these bytes; inv B @ B == I was checked by hand from the printed rows.
BODY_INVERSE_SCRIPT = """\
context M even=[t] odd=[theta1, theta2]
matrix B dims 2|1 -> 2|1 rows [1, 2, theta1; 3, 4, theta2; theta2, theta1, 1]
inv B
ber B
"""

BODY_INVERSE_REPORT = """\
dims 2|1 -> 2|1
[-2 + 5/2*theta1*theta2, 1 - 3/2*theta1*theta2, 2*theta1 - theta2]
[3/2 - 9/4*theta1*theta2, -1/2 + 5/4*theta1*theta2, -3/2*theta1 + 1/2*theta2]
[-3/2*theta1 + 2*theta2, 1/2*theta1 - theta2, 1 + 3/2*theta1*theta2]
-2 - 3*theta1*theta2
"""


def test_cli_body_inverse_bytes():
    proc = cli(stdin=BODY_INVERSE_SCRIPT)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == BODY_INVERSE_REPORT


# A hostile input: a 12|1 matrix whose T1 is a dense rational 12x12.  Its
# body inverse is one elimination over Q; the kernel at b037f0d took n
# Laplace passes of 2^11 row masks for it, 1.1-1.4 s of CPU for the whole
# run.  The sha256 was computed once, by that kernel, and pins the bytes
# of the faster path.
HOSTILE_INVERSE_SHA256 = "43bf1579fc2a3fa30d4900f069a7f7bda20533079b49eaf1e0139f53517564f1"


def hostile_inverse_script():
    rng = random.Random(36)
    nums = [v for v in range(-9, 10) if v]
    rows = []
    for i in range(13):
        row = []
        for j in range(13):
            if i < 12 and j < 12:
                row.append(f"{rng.choice(nums)}/{rng.randint(1, 9)}")
            elif i == j:
                row.append("1")
            else:
                row.append(rng.choice(["theta1", "theta2", "-theta1", "2*theta2"]))
        rows.append(", ".join(row))
    return ("context H even=[] odd=[theta1, theta2]\n"
            f"matrix A dims 12|1 -> 12|1 rows [{'; '.join(rows)}]\n"
            "inv A\n")


def test_cli_inverts_a_dense_rational_12x12_body():
    proc = cli(stdin=hostile_inverse_script())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sha256(proc.stdout) == HOSTILE_INVERSE_SHA256


def test_cli_json_out(tmp_path):
    path = tmp_path / "session.sg"
    path.write_text(SCRIPT)
    out = tmp_path / "values.json"
    proc = cli("--script", str(path), "--json-out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert set(data) == {"A"}
    assert from_json(data["A"]).berezinian() is not None


def test_cli_json_out_unwritable(tmp_path):
    path = tmp_path / "session.sg"
    path.write_text(SCRIPT)
    report = cli("--script", str(path)).stdout
    proc = cli("--script", str(path), "--json-out", str(tmp_path / "nowhere" / "x.json"))
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == report


def test_cli_error_exit(tmp_path):
    path = tmp_path / "broken.sg"
    path.write_text("context G even=[t] odd=[]\neval nope\n")
    proc = cli("--script", str(path))
    assert proc.returncode == 1
    assert "error: line 2" in proc.stderr
    assert proc.stdout == ""


def test_cli_keep_going_flag(tmp_path):
    path = tmp_path / "broken.sg"
    path.write_text(
        "context G even=[t] odd=[]\neval nope\neval also\neval t\n"
    )
    proc = cli("--script", str(path), "--keep-going")
    assert proc.returncode == 1
    assert proc.stderr.count("error:") == 2
    assert proc.stdout == "t\n"


def test_cli_missing_file():
    proc = cli("--script", "/nonexistent/nowhere.sg")
    assert proc.returncode == 1
    assert "error:" in proc.stderr
