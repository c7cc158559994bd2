import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

import covlat
from covlat import (
    BaseSet,
    Cover,
    InputError,
    Workspace,
    dump_json,
    instance_to_json,
    load_instance,
    parse_instance,
)
from covlat import cli, errors
from covlat.morphism import ValidatedMorphism
from covlat.sets import Subset
from covlat.cli import build_parser, main
from covlat.fileio import operator_to_json, write_dot
from conftest import DATA, cli_env, data_path, golden, run_cli


def operator_report(table, cover_ref):
    """The text of an operator report: ``dump_json`` of its dict form."""
    return dump_json(operator_to_json(table, cover_ref))


class TestLauncher:
    def test_child_imports_tested_covlat_with_default_caps(self, tmp_path, monkeypatch):
        # A decoy covlat on the caller's PYTHONPATH must not shadow the tested one.
        (tmp_path / "covlat").mkdir()
        (tmp_path / "covlat" / "__init__.py").write_text("")
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        monkeypatch.setenv("COVLAT_MAX_BASE", "16")
        code = "import os, covlat; print(covlat.__file__); print(os.environ.get('COVLAT_MAX_BASE'))"
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=DATA, env=cli_env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        child_file, child_cap = proc.stdout.splitlines()
        assert child_file == os.path.abspath(covlat.__file__)
        assert child_cap == "None"

    def test_cli_import_leaves_oracle_unloaded(self):
        # nor dataclasses, whose import (with inspect) costs each start-up
        code = (
            "import sys, covlat.cli; print('covlat.oracle' in sys.modules); "
            "print('dataclasses' in sys.modules); "
            "import covlat; print(covlat.EnumerationBudget.__module__); "
            "import covlat.oracle; print('dataclasses' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=DATA, env=cli_env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "False", "covlat.oracle", "False"]

    def test_compose_scans_the_minimal_covers_of_its_cover_once(self, monkeypatch, capsys):
        # the operand, validated once for both places, and the composite run
        # on free2.json: two respects_covers calls, one scan
        monkeypatch.chdir(DATA)
        calls, scans = [], []
        minimal_covers = Cover.minimal_covers

        def counted(self):
            calls.append(self)
            if self._minimal is None:
                scans.append(self)
            return minimal_covers(self)

        monkeypatch.setattr(Cover, "minimal_covers", counted)
        assert main(["morphism", "compose", "id2.json", "id2.json"]) == 0
        assert len(calls) == 2 and len(scans) == 1
        monkeypatch.undo()
        assert capsys.readouterr().out == run_cli("morphism", "compose", "id2.json", "id2.json").stdout

    @pytest.mark.parametrize(
        "files,builds", [(["id2.json", "id2.json"], 2), (["id2.json", "collapse.json"], 3)]
    )
    def test_compose_validates_one_file_once(self, monkeypatch, capsys, files, builds):
        # the same file as both operands is validated once, two files once
        # each; the composite is always validated again
        monkeypatch.chdir(DATA)
        calls = []
        build = ValidatedMorphism.build.__func__

        def counted(cls, *args):
            calls.append(args)
            return build(cls, *args)

        monkeypatch.setattr(ValidatedMorphism, "build", classmethod(counted))
        assert main(["morphism", "compose", *files]) == 0
        assert len(calls) == builds
        monkeypatch.undo()
        assert capsys.readouterr().out == run_cli("morphism", "compose", *files).stdout

    def test_main_calls_in_one_process_match_fresh_children(self, monkeypatch):
        # the parser is built once per process and shared by every call,
        # a usage error included
        monkeypatch.chdir(DATA)
        calls = [
            ["check"],
            ["check", "m3.json"],
            ["frame", "chain.json"],
            ["operator", "verify", "trivial_closure_free2.json"],
            ["operator", "join", "trivial_closure_free2.json", "trivial_closure_free2.json"],
            ["check", "free2.json"],
        ]
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            child = run_cli(*argv)
            assert (code, out.getvalue(), err.getvalue()) == (
                child.returncode,
                child.stdout,
                child.stderr,
            ), argv
        assert build_parser() is build_parser()


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "instance,expected_exit,golden_name",
        [
            ("m3.json", 1, "check_m3.json"),
            ("free2.json", 0, "check_free2.json"),
        ],
    )
    def test_check(self, instance, expected_exit, golden_name):
        proc = run_cli("check", instance)
        assert proc.returncode == expected_exit
        assert proc.stdout == golden(golden_name)

    @pytest.mark.parametrize(
        "instance,golden_name",
        [
            ("chain.json", "frame_chain.json"),
            ("free2.json", "frame_free2.json"),
            ("m3.json", "frame_m3.json"),
        ],
    )
    def test_frame(self, instance, golden_name):
        proc = run_cli("frame", instance)
        assert proc.returncode == 0
        assert proc.stdout == golden(golden_name)

    def test_frame_dot(self, tmp_path):
        out = tmp_path / "chain.dot"
        proc = run_cli("frame", "chain.json", "--dot", str(out))
        assert proc.returncode == 0
        assert out.read_text() == golden("frame_chain.dot")

    def test_dot_ids_are_distinct_and_quoted(self):
        # {a, b} and {"a,b"} need distinct ids; a quote or a backslash in
        # a name must not end its quoted string
        base = BaseSet(["a", "b", "a,b", 'x"y', "z\\"])
        frame = Cover.from_axiom_names(base, []).saturated_sets()
        out = io.StringIO()
        write_dot(out, frame, frame.hasse_edges())
        text = out.getvalue()
        quoted = r'"(?:[^"\\]|\\.)*"'
        nodes = re.findall(rf"^  ({quoted}) \[label={quoted}\];$", text, re.M)
        assert len(set(nodes)) == len(frame.sets) == 32
        assert len(re.findall(rf"^  {quoted} -> {quoted};$", text, re.M)) == len(frame.hasse_edges())
        assert '"a,b"' in nodes and '"a\\,b"' in nodes and '"x\\"y"' in nodes and '"z\\\\"' in nodes

    @pytest.mark.parametrize(
        "args,expected_exit,golden_name",
        [
            (["reflect", "trivial_closure_free2.json"], 0, "operator_reflect_trivial_closure_free2.json"),
            (
                ["join", "trivial_closure_free2.json", "trivial_closure_free2.json"],
                0,
                "operator_join_trivial_closure_free2.json",
            ),
            (
                ["initial", "id2.json", "trivial_closure_free2.json"],
                0,
                "operator_initial_id2_trivial_closure_free2.json",
            ),
            (
                ["initial", "collapse.json", "discrete_interior_one.json", "--kind", "interior",
                 "--initial-mode", "paper"],
                1,
                "operator_initial_paper_collapse_discrete_interior_one.json",
            ),
            # a base whose order is not sorted order: 日, b, é, a
            (["reflect", "closure_unsorted4.json"], 0, "operator_reflect_closure_unsorted4.json"),
            (
                ["initial", "unsorted4_to_free2.json", "discrete_interior_free2.json", "--kind",
                 "interior", "--initial-mode", "paper"],
                1,
                "operator_initial_paper_unsorted4_to_free2_discrete_interior_free2.json",
            ),
        ],
        ids=[
            "reflect",
            "join",
            "initial-closure",
            "initial-paper-interior",
            "reflect-unsorted-base",
            "initial-paper-unsorted-base",
        ],
    )
    def test_operator(self, args, expected_exit, golden_name):
        proc = run_cli("operator", *args)
        assert proc.returncode == expected_exit
        assert proc.stdout == golden(golden_name)

    def test_certify_defaults(self):
        # the report byte for byte, once each certificate's runtime_s is cut
        proc = run_cli("certify")
        assert proc.returncode == 0
        stripped, cuts = re.subn(r',\n    "runtime_s": \d+(\.\d+)?(e-\d+)?(?=\n  \})', "", proc.stdout)
        assert cuts == 6
        assert stripped == golden("certify_defaults.json")

    def test_m3_witness_is_printed(self):
        proc = run_cli("check", "m3.json")
        assert "'element': 'a'" in proc.stderr
        assert "['b', 'c']" in proc.stderr


class TestStreamedReports:
    """Table and frame reports go to stdout in chunks of rows."""

    @pytest.mark.parametrize(
        "args,golden_name",
        [
            (["frame", "chain.json"], "frame_chain.json"),
            (["frame", "m3.json"], "frame_m3.json"),
            (["operator", "join", "trivial_closure_free2.json", "trivial_closure_free2.json"],
             "operator_join_trivial_closure_free2.json"),
            (["operator", "reflect", "closure_unsorted4.json"], "operator_reflect_closure_unsorted4.json"),
            (["operator", "initial", "collapse.json", "discrete_interior_one.json", "--kind", "interior",
              "--initial-mode", "paper"], "operator_initial_paper_collapse_discrete_interior_one.json"),
        ],
        ids=["frame-chain", "frame-m3", "join", "reflect-unsorted-base", "initial-paper"],
    )
    def test_unbuffered_child_writes_the_same_bytes(self, args, golden_name):
        # each write reaches the pipe at once under PYTHONUNBUFFERED
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        argv = [sys.executable, "-m", "covlat.cli", *args]
        buffered = subprocess.run(argv, cwd=DATA, env=env, capture_output=True)
        unbuffered = subprocess.run(
            argv, cwd=DATA, env={**env, "PYTHONUNBUFFERED": "1"}, capture_output=True
        )
        assert buffered.stdout == golden(golden_name).encode("utf-8")
        assert (unbuffered.returncode, unbuffered.stdout, unbuffered.stderr) == (
            buffered.returncode,
            buffered.stdout,
            buffered.stderr,
        )

    def test_free16_frame_peak_rss(self, tmp_path):
        """`frame` on the free 16-element cover writes its 150,929,396-byte
        report with a peak RSS under 250 MB (holding the report whole took
        about 635 MB; chunked, about 100 MB on CPython 3.11, x86-64 Linux).

        A wrapper child starts the covlat child, so RUSAGE_CHILDREN counts
        that child alone, not the other children of the test run.  Linux
        gives ``ru_maxrss`` in KiB.
        """
        names = [f"e{i}" for i in range(16)]
        (tmp_path / "free16.json").write_text(json.dumps({"base": names, "axioms": []}))
        wrapper = (
            "import hashlib, resource, subprocess, sys\n"
            "proc = subprocess.Popen([sys.executable, '-m', 'covlat.cli', 'frame', 'free16.json'],\n"
            "                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)\n"
            "digest, size = hashlib.sha256(), 0\n"
            "for chunk in iter(lambda: proc.stdout.read(1 << 20), b''):\n"
            "    digest.update(chunk)\n"
            "    size += len(chunk)\n"
            "code = proc.wait()\n"
            "print(code, size, digest.hexdigest(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper], cwd=tmp_path, env=cli_env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        code, size, digest, max_rss_kib = proc.stdout.split()
        assert (code, size) == ("0", "150929396")
        assert digest == "fc9db683e89054cdc97c2353623a4318475b8ae38f36c209236ec6b16d1ffe98"
        assert int(max_rss_kib) < 250 * 1024

    def test_free16_frame_dot_peak_rss(self, tmp_path):
        """`frame --dot` on the free 16-element cover writes its
        38,207,532-byte diagram, and the same report to stdout, with a peak
        RSS under 150 MB (holding the diagram whole took about 211 MB;
        written in batches of lines, about 80 MB on CPython 3.11, x86-64
        Linux, as without ``--dot``).  Measured as in
        ``test_free16_frame_peak_rss``.
        """
        names = [f"e{i}" for i in range(16)]
        (tmp_path / "free16.json").write_text(json.dumps({"base": names, "axioms": []}))
        wrapper = (
            "import hashlib, resource, subprocess, sys\n"
            "proc = subprocess.Popen([sys.executable, '-m', 'covlat.cli', 'frame', 'free16.json',\n"
            "                         '--dot', 'free16.dot'],\n"
            "                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)\n"
            "digest = hashlib.sha256()\n"
            "for chunk in iter(lambda: proc.stdout.read(1 << 20), b''):\n"
            "    digest.update(chunk)\n"
            "code = proc.wait()\n"
            "print(code, digest.hexdigest(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper], cwd=tmp_path, env=cli_env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        code, digest, max_rss_kib = proc.stdout.split()
        assert code == "0"
        assert digest == "fc9db683e89054cdc97c2353623a4318475b8ae38f36c209236ec6b16d1ffe98"
        dot = (tmp_path / "free16.dot").read_bytes()
        assert len(dot) == 38207532
        assert hashlib.sha256(dot).hexdigest() == "72817d47e298166af85e95fe31495160e4323971c2e4d69700b38479cd183377"
        assert int(max_rss_kib) < 150 * 1024


def _docstring_exit_codes():
    """Error class name -> exit code, from the bullets of the cli docstring."""
    codes = {}
    for code, text in re.findall(r"^- (\d): (.*?)(?=^- |^$)", cli.__doc__, re.M | re.S):
        for name in re.findall(r"``(\w+Error)``", text):
            codes[name] = int(code)
    return codes


ERROR_CLASSES = [
    cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, errors.CovlatError)
]


class TestErrorExitCodes:
    def test_docstring_names_error_classes(self):
        codes = _docstring_exit_codes()
        assert codes["CovlatError"] == 2 and codes["CapExceededError"] == 3
        assert set(codes) <= {cls.__name__ for cls in ERROR_CLASSES}

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_each_error_class_exits_with_its_documented_code(self, cls, monkeypatch, capsys):
        codes = _docstring_exit_codes()
        assert cls.exit_code == codes.get(cls.__name__, codes["CovlatError"])
        exc = cls.__new__(cls)
        Exception.__init__(exc, "boom")

        def fail(args):
            raise exc

        parser = argparse.ArgumentParser()
        parser.set_defaults(fn=fail)
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        assert main([]) == cls.exit_code
        assert capsys.readouterr() == ("", "error: boom\n")


class TestFrameBuildsNoSubset:
    """The frame and its Hasse edges are masks: neither the library nor
    the `frame` command makes a Subset for a passing cover."""

    @pytest.fixture
    def made(self, monkeypatch):
        made = []
        init, bulk = Subset.__init__, BaseSet.subsets_from_masks

        def counted_init(self, base, mask):
            made.append(mask)
            init(self, base, mask)

        def counted_bulk(self, masks):
            masks = list(masks)
            made.extend(masks)
            return bulk(self, masks)

        monkeypatch.setattr(Subset, "__init__", counted_init)
        monkeypatch.setattr(BaseSet, "subsets_from_masks", counted_bulk)
        return made

    @pytest.mark.parametrize("size", [None, 9], ids=["chain", "free9"])
    def test_saturated_sets_and_hasse_edges(self, made, size):
        # free9 lies above the double cap: no convergence, no table
        if size is None:
            cover = load_instance(data_path("chain.json"))
        else:
            cover = Cover(BaseSet(f"e{i}" for i in range(size)))
        made.clear()
        frame = cover.saturated_sets()
        assert frame.hasse_edges()
        assert made == []

    def test_frame_command(self, made, monkeypatch, capsys):
        monkeypatch.chdir(DATA)
        assert main(["frame", "chain.json"]) == 0
        assert made == []
        assert capsys.readouterr().out == golden("frame_chain.json")


class TestExitCodes:
    def test_pass_is_zero(self):
        assert run_cli("check", "free2.json").returncode == 0

    def test_check_failure_is_one(self):
        proc = run_cli("check", "m3.json")
        assert proc.returncode == 1
        # exit 1 from a failed check, not from a crashed interpreter
        report = json.loads(proc.stdout)
        assert report["file"] == "m3.json" and report["pass"] is False

    def test_malformed_json_is_two(self):
        proc = run_cli("check", "bad.json")
        assert proc.returncode == 2
        assert "line 1" in proc.stderr

    def test_missing_file_is_two(self):
        assert run_cli("check", "nope.json").returncode == 2

    @pytest.mark.parametrize(
        "content,message",
        [(b"\xff", "not UTF-8 text"), (b"[" * 100000, "JSON nested too deeply")],
        ids=["not-utf8", "deep-nesting"],
    )
    def test_unreadable_json_is_one_line_input_error(self, tmp_path, content, message):
        (tmp_path / "in.json").write_bytes(content)
        proc = run_cli("check", "in.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: in.json: " + message)
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("reference", ["a\u0000b.json", "\ud800.json"], ids=["nul", "surrogate"])
    @pytest.mark.parametrize(
        "args, field",
        [
            (["morphism", "verify", "ref.json"], "source"),
            (["morphism", "verify", "ref.json"], "target"),
            (["operator", "verify", "ref.json"], "cover"),
        ],
        ids=["source", "target", "cover"],
    )
    def test_bad_file_reference_is_one_line_input_error(self, tmp_path, args, field, reference):
        # open() refuses such a name with ValueError, not OSError
        data = {"source": "free2.json", "target": "free2.json", "pairs": []}
        if field == "cover":
            data = {"cover": "free2.json", "kind": "closure", "table": []}
        data[field] = reference
        (tmp_path / "ref.json").write_text(json.dumps(data))
        (tmp_path / "free2.json").write_text(json.dumps({"base": ["a", "b"], "axioms": []}))
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot read {reference!r}: not a file name: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_over_long_integer_is_one_line_input_error(self, tmp_path):
        # CPython 3.11+ refuses to decode an integer literal of more than
        # 4,300 digits with a plain ValueError; on 3.10 it decodes, and the
        # base refuses a non-string element, also with exit 2
        (tmp_path / "in.json").write_text('{"base": [' + "7" * 5000 + '], "axioms": []}')
        proc = run_cli("check", "in.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1
        if sys.version_info >= (3, 11):
            assert proc.stderr.startswith("error: in.json: cannot decode JSON: ")

    @pytest.mark.parametrize("reference", ["a\nb.json", "a\rb.json", "a\u2028b.json"], ids=["lf", "cr", "ls"])
    def test_line_break_in_reference_is_escaped(self, tmp_path, reference):
        # the message names the path; its line break prints as an escape
        data = {"cover": reference, "kind": "closure", "table": []}
        (tmp_path / "ref.json").write_text(json.dumps(data))
        proc = run_cli("operator", "verify", "ref.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        escaped = reference.encode("unicode_escape").decode("ascii")
        assert proc.stderr.startswith(f"error: cannot read {escaped}: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_unwritable_dot_path_is_two(self, tmp_path):
        target = tmp_path / "missing" / "g.dot"
        proc = run_cli("frame", "chain.json", "--dot", str(target))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot write {target}: ")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "size, extra, env, code, error",
        [
            (17, [], {}, 3, "saturated_sets: base size 17 exceeds cap 16"),
            (3, [], {"COVLAT_MAX_BASE": "2"}, 3, "saturated_sets: base size 3 exceeds cap 2"),
            (3, ["--dot", "missing/g.dot"], {}, 2, "cannot write missing/g.dot: "),
            (None, [], {}, 2, "in.json: invalid JSON at line 1"),
        ],
        ids=["hard-cap", "override", "unwritable-dot", "malformed-json"],
    )
    def test_failing_frame_prints_nothing(self, tmp_path, size, extra, env, code, error):
        # every failing exit comes before the first byte of the report
        names = [f"e{i}" for i in range(size or 0)]
        text = '{"base": ' if size is None else json.dumps({"base": names, "axioms": []})
        (tmp_path / "in.json").write_text(text)
        proc = run_cli("frame", "in.json", *extra, cwd=tmp_path, env=env)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: " + error)
        assert len(proc.stderr.splitlines()) == 1

    # An element given as a list: once per place an element name is read.
    @pytest.mark.parametrize(
        "args,files,element",
        [
            (["check", "in.json"], {"in.json": {"base": ["a", "b"], "axioms": [[["a"], ["b"]]]}}, "a"),
            (["check", "in.json"], {"in.json": {"base": ["a", "b"], "axioms": [["a", [["b"]]]]}}, "b"),
            (["check", "in.json"], {"in.json": {"base": ["a"], "table": [[[["a"]], ["a"]]]}}, "a"),
            (
                ["operator", "verify", "op.json"],
                {
                    "cover.json": {"base": ["a"], "axioms": []},
                    "op.json": {"cover": "cover.json", "table": [[[], []], [[["a"]], ["a"]]]},
                },
                "a",
            ),
        ],
        ids=["axiom-head", "axiom-body", "instance-table", "operator-table"],
    )
    def test_nested_list_is_one_line_input_error(self, tmp_path, args, files, element):
        for name, data in files.items():
            (tmp_path / name).write_text(json.dumps(data))
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "unhashable" not in proc.stderr
        assert lines[0].endswith(f"element [{element!r}] is not in this base")

    # Each input error names the file it is in.
    @pytest.mark.parametrize(
        "args,files,message",
        [
            (
                ["morphism", "verify", "m.json"],
                {
                    "in.json": {"base": ["a"], "axioms": []},
                    "m.json": {"source": "in.json", "target": "in.json", "pairs": [["a", "z"]]},
                },
                "m.json: element 'z' is not in this base",
            ),
            (
                ["morphism", "verify", "m.json"],
                {
                    "in.json": {"base": ["a"], "axioms": []},
                    "m.json": {"source": "in.json", "target": "in.json", "pairs": [["a"]]},
                },
                "m.json: pairs must be [source, target] pairs",
            ),
            (
                ["check", "in.json"],
                {"in.json": {"base": ["a"], "axioms": [["a", "a"]]}},
                "in.json: axioms must be [element, [elements...]] pairs",
            ),
            (
                ["check", "in.json"],
                {"in.json": {"base": ["a"], "axioms": {"a": []}}},
                "in.json: field 'axioms' has the wrong type",
            ),
            (
                ["check", "in.json"],
                {
                    "in.json": {
                        "base": ["a", "b"],
                        "axioms": [["a", ["b"]]],
                        "table": [[[], []], [["a"], ["a"]], [["b"], ["b"]], [["a", "b"], ["a", "b"]]],
                    }
                },
                "in.json: a cover is given by axioms or by a table, not both",
            ),
        ],
        ids=["pair-element", "pair-shape", "axiom-shape", "axioms-type", "axioms-and-table"],
    )
    def test_input_error_names_its_file(self, tmp_path, args, files, message):
        for name, data in files.items():
            (tmp_path / name).write_text(json.dumps(data))
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == 2
        assert (proc.stdout, proc.stderr) == ("", f"error: {message}\n")

    def test_unparsable_cap_override_warns_once(self):
        plain = run_cli("check", "m3.json")
        proc = run_cli("check", "m3.json", env={"COVLAT_MAX_BASE": "abc"})
        assert proc.returncode == plain.returncode == 1
        assert proc.stdout == plain.stdout
        assert proc.stderr.count("RuntimeWarning") == 1
        assert "COVLAT_MAX_BASE='abc'" in proc.stderr

    @pytest.mark.parametrize(
        "args,files,where",
        [
            (
                ["operator", "verify", "op.json"],
                {
                    "free2.json": {"base": ["a", "b"], "axioms": []},
                    "op.json": {
                        "cover": "free2.json",
                        "kind": "closure",
                        "table": [[[], []], [["a"], ["a", "b"]], [["b"], ["a", "b"]],
                                  [["a", "b"], ["a", "b"]], [[], ["a", "b"]]],
                    },
                },
                "op.json: carrier []",
            ),
            (
                ["check", "in.json"],
                {
                    "in.json": {
                        "base": ["a", "b"],
                        "table": [[[], []], [["a"], ["a"]], [["b"], ["b"]],
                                  [["a", "b"], ["a", "b"]], [["b", "a"], ["a", "b"]]],
                    },
                },
                "in.json: carrier ['a', 'b']",
            ),
        ],
        ids=["operator-table", "instance-table"],
    )
    def test_duplicate_table_row_is_two(self, tmp_path, args, files, where):
        # a repeated carrier is an input error even when the rows agree
        for name, data in files.items():
            (tmp_path / name).write_text(json.dumps(data))
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {where} listed twice\n"

    # A bad row in either table file: the one-line message is part of the
    # contract (a list as a carrier name is pinned above).
    @pytest.mark.parametrize(
        "row,message",
        [
            ([["z"], ["a"]], "element 'z' is not in this base"),
            ([["a"], ["z"]], "element 'z' is not in this base"),
            ([["a"], [["b"]]], "element ['b'] is not in this base"),
            ([[1], []], "element 1 is not in this base"),
            ([5, []], "'int' object is not iterable"),
            ("a", "table rows must be {shape} pairs"),
            ([["a"], "ab"], "table rows must be {shape} pairs"),
            ([{"a": 1, "b": 2}, ["a"]], "table rows must be {shape} pairs"),
        ],
        ids=["unknown-carrier", "unknown-image", "list-image", "int-name", "int-carrier",
             "string-row", "string-side", "object-side"],
    )
    @pytest.mark.parametrize(
        "args,kind,shape",
        [
            (["operator", "verify", "t.json"], "operator", "[carrier, image]"),
            (["check", "t.json"], "instance", "[subset, cover-set]"),
        ],
        ids=["operator-table", "instance-table"],
    )
    def test_bad_table_row_message(self, tmp_path, row, message, args, kind, shape):
        rows = [[[], []], row]
        if kind == "operator":
            (tmp_path / "cover.json").write_text(json.dumps({"base": ["a", "b"], "axioms": []}))
            data = {"cover": "cover.json", "table": rows}
        else:
            data = {"base": ["a", "b"], "table": rows}
        (tmp_path / "t.json").write_text(json.dumps(data))
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: t.json: {message.format(shape=shape)}\n"

    # Whole tables on the base [a, b] with one row changed: the rows that a
    # table file spells as it is printed are read in bulk, any other table
    # row by row, and both give the same masks and the same first error.
    TABLES = {
        "operator": [[[], []], [["a"], ["a", "b"]], [["b"], ["a", "b"]], [["a", "b"], ["a", "b"]]],
        "instance": [[[], []], [["a"], ["a"]], [["b"], ["b"]], [["a", "b"], ["a", "b"]]],
    }

    @staticmethod
    def run_table(tmp_path, kind, rows):
        if kind == "operator":
            (tmp_path / "cover.json").write_text(json.dumps({"base": ["a", "b"], "axioms": []}))
            data = {"cover": "cover.json", "kind": "closure", "table": rows}
            args = ["operator", "verify", "t.json"]
        else:
            data = {"base": ["a", "b"], "table": rows}
            args = ["check", "t.json"]
        (tmp_path / "t.json").write_text(json.dumps(data))
        return run_cli(*args, cwd=tmp_path)

    @pytest.mark.parametrize(
        "index,row",
        [(3, [["b", "a"], None]), (1, [["a"], "reversed"]), (1, [["a", "a"], None])],
        ids=["unsorted-carrier", "unsorted-image", "name-repeated-in-side"],
    )
    @pytest.mark.parametrize("kind", ["operator", "instance"])
    def test_unsorted_and_repeated_names_read_as_sorted(self, tmp_path, kind, index, row):
        rows = [list(r) for r in self.TABLES[kind]]
        carrier, image = row
        image = rows[index][1][::-1] if image == "reversed" else rows[index][1]
        rows[index] = [carrier, image]
        sorted_proc = self.run_table(tmp_path, kind, self.TABLES[kind])
        proc = self.run_table(tmp_path, kind, rows)
        assert proc.returncode == sorted_proc.returncode == 0
        assert (proc.stdout, proc.stderr) == (sorted_proc.stdout, sorted_proc.stderr)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda rows: rows[:3] + [[["a", "q"], ["a", "b"]]], "element 'q' is not in this base"),
            (lambda rows: rows[:2] + [[["b"], 5]] + rows[3:], "'int' object is not iterable"),
            (lambda rows: rows[:2] + [[None, ["a", "b"]]] + rows[3:],
             "'NoneType' object is not iterable"),
            (lambda rows: rows[:3] + [[["a", ["b"]], ["a", "b"]]], "element ['b'] is not in this base"),
            (lambda rows: rows + [rows[1]], "carrier ['a'] listed twice"),
            (lambda rows: rows + [[["b", "a"], ["a", "b"]]], "carrier ['a', 'b'] listed twice"),
            (lambda rows: rows[:2] + [rows[1]] + rows[3:], "carrier ['a'] listed twice"),
            (lambda rows: rows[:2] + [rows[2] + [["b"]]] + rows[3:], "table rows must be {shape} pairs"),
            (lambda rows: [rows[0], [["q"], ["a"]]] + rows[2:] + [rows[2]],
             "element 'q' is not in this base"),
            (lambda rows: rows[:2] + [rows[1], [["q"], ["a"]]], "carrier ['a'] listed twice"),
            (lambda rows: rows[:3], "{missing}"),
            (lambda rows: [rows[0], ["a", rows[1][1]]] + rows[2:], "table rows must be {shape} pairs"),
            (lambda rows: rows[:3] + [[rows[3][0], {"a": 1, "b": 2}]], "table rows must be {shape} pairs"),
            (lambda rows: [rows[0], [["q"], ["a"]], rows[2], [rows[3][0], "ab"]],
             "element 'q' is not in this base"),
            (lambda rows: rows[:3] + [5], "table rows must be {shape} pairs"),
            (lambda rows: rows[:3] + ["ab"], "table rows must be {shape} pairs"),
        ],
        ids=[
            "unknown-name",
            "int-side",
            "null-side",
            "unhashable-member",
            "listed-twice",
            "listed-twice-unsorted",
            "listed-twice-one-missing",
            "three-item-row",
            "unknown-name-before-repeat",
            "repeat-before-unknown-name",
            "missing-carrier",
            "string-side",
            "object-side",
            "unknown-name-before-string-side",
            "int-row",
            "string-row",
        ],
    )
    @pytest.mark.parametrize(
        "kind,shape,missing",
        [
            ("operator", "[carrier, image]", "operator table must map every carrier exactly once"),
            ("instance", "[subset, cover-set]",
             "relation table must list every subset of the base exactly once"),
        ],
        ids=["operator", "instance"],
    )
    def test_whole_table_with_one_bad_row(self, tmp_path, kind, shape, missing, edit, message):
        proc = self.run_table(tmp_path, kind, edit([list(r) for r in self.TABLES[kind]]))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: t.json: {message.format(shape=shape, missing=missing)}\n"

    # Malformed invocations: a wrong operand count, tables of both kinds, a
    # cover size the certificates cannot honour.
    @pytest.mark.parametrize(
        "args,message",
        [
            (["morphism", "canon", "id2.json", "id2.json"], "morphism canon takes 1 file, got 2"),
            (["morphism", "compose", "id2.json"], "morphism compose takes 2 files, got 1"),
            (["morphism", "compose", "id2.json", "id2.json", "id2.json"],
             "morphism compose takes 2 files, got 3"),
            (["operator", "verify", "trivial_closure_free2.json", "extra.json"],
             "operator verify takes 1 file, got 2"),
            (["operator", "join", "trivial_closure_free2.json"], "operator join takes 2 files, got 1"),
            (["operator", "join", "trivial_closure_free2.json", "trivial_closure_free2.json",
              "trivial_closure_free2.json"], "operator join takes 2 files, got 3"),
            (["operator", "initial", "id2.json"], "operator initial takes 2 files, got 1"),
            (["operator", "initial", "id2.json", "trivial_closure_free2.json",
              "trivial_closure_free2.json"], "operator initial takes 2 files, got 3"),
            (["operator", "continuity", "id2.json", "trivial_closure_free2.json"],
             "operator continuity takes 3 files, got 2"),
            (["operator", "continuity", "id2.json", "trivial_closure_free2.json",
              "trivial_closure_free2.json", "trivial_closure_free2.json"],
             "operator continuity takes 3 files, got 4"),
            (["operator", "continuity", "id2.json", "trivial_closure_free2.json",
              "discrete_interior_free2.json"], "cannot combine closure and interior tables"),
            (["operator", "continuity", "id2.json", "discrete_interior_free2.json",
              "trivial_closure_free2.json"], "cannot combine closure and interior tables"),
            (["certify", "--max-cover-size", "4"], "--max-cover-size must be at most 3, got 4"),
        ],
        ids=[
            "canon-too-many",
            "compose-too-few",
            "compose-too-many",
            "verify-too-many",
            "join-too-few",
            "join-too-many",
            "initial-too-few",
            "initial-too-many",
            "continuity-too-few",
            "continuity-too-many",
            "continuity-closure-interior",
            "continuity-interior-closure",
            "certify-max-cover-size",
        ],
    )
    def test_malformed_invocation_is_one_line_input_error(self, args, message):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    def test_cap_exceeded_is_three(self):
        big = {"base": [f"e{i}" for i in range(12)], "axioms": []}
        import tempfile

        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(big, fh)
            path = fh.name
        try:
            proc = run_cli("check", path)
            assert proc.returncode == 3
        finally:
            os.unlink(path)


class TestMorphismCommands:
    def test_verify(self):
        proc = run_cli("morphism", "verify", "collapse.json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["pass"] and report["respects"]["pass"]

    def test_canon(self):
        proc = run_cli("morphism", "canon", "id2.json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["canonical"] == {"a": ["a"], "b": ["b"]}

    def test_verify_failure_reports_respect_witness(self, tmp_path):
        # free2 to the chain sends a to a and b to b: a is covered by {b}
        # in the chain, but the preimage {b} does not cover a in free2
        rel = {
            "source": data_path("free2.json"),
            "target": data_path("chain.json"),
            "pairs": [["a", "a"], ["b", "b"]],
        }
        (tmp_path / "rel.json").write_text(json.dumps(rel))
        proc = run_cli("morphism", "verify", "rel.json", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "respects covers: False\n"
        assert json.loads(proc.stdout) == {
            "file": "rel.json",
            "respects": {"pass": False, "witness": {"element": "a", "v": ["b"]}, "checked": 2},
            "pass": False,
        }

    def test_compose_with_identity_is_equivalent(self):
        proc = run_cli("morphism", "compose", "id2.json", "collapse.json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["pairs"] == [["a", "x"], ["b", "x"]]
        canon = json.loads(run_cli("morphism", "canon", "collapse.json").stdout)
        assert report["canonical"] == canon["canonical"]


class TestOperatorCommands:
    def test_verify_trivial_closure(self):
        proc = run_cli("operator", "verify", "trivial_closure_free2.json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"]

    def test_passing_verify_counts_one_bit_edges(self):
        # 2^n extension cases + n * 2^(n-1) one-bit edges + the fixed carrier
        proc = run_cli("operator", "verify", "trivial_closure_free2.json")
        assert json.loads(proc.stdout)["verdict"]["checked"] == 4 + 4 + 1

    def test_join_through_symlinked_table_instance(self, tmp_path):
        # two paths to one table instance give equal table covers: the same cover
        cover = load_instance(data_path("chain.json"))
        names = cover.base.sorted_member_table()
        rows = [[names[m], names[s]] for m, s in enumerate(cover.saturation_table())]
        (tmp_path / "inst.json").write_text(json.dumps({"base": list(cover.base.elements), "table": rows}))
        os.symlink("inst.json", tmp_path / "link.json")
        identity = [[name, name] for name in names]
        for name, ref in [("one.json", "inst.json"), ("two.json", "link.json")]:
            (tmp_path / name).write_text(json.dumps({"cover": ref, "kind": "closure", "table": identity}))
        proc = run_cli("operator", "join", "one.json", "two.json", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["table"] == identity

    def test_join_meet(self):
        proc = run_cli(
            "operator", "join", "trivial_closure_free2.json", "trivial_closure_free2.json"
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["kind"] == "closure"

    def test_initial_paper_mode_reports_pinned_defect(self):
        proc = run_cli(
            "operator",
            "initial",
            "collapse.json",
            "discrete_interior_one.json",
            "--kind",
            "interior",
            "--initial-mode",
            "paper",
        )
        assert proc.returncode == 1
        assert "I1 violated, witness ['a']" in proc.stderr
        report = json.loads(proc.stdout)
        assert report["verdict"]["witness"] == {"axiom": "I1", "carrier": ["a"]}

    def test_initial_corrected_mode(self):
        proc = run_cli(
            "operator",
            "initial",
            "collapse.json",
            "discrete_interior_one.json",
            "--kind",
            "interior",
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["kind"] == "interior"

    @pytest.mark.parametrize(
        "kind, mode, outputs, message",
        [
            ("closure", [], [[], [], [], []], "target closure table fails C1 at carrier ['a']"),
            ("interior", [], [[], ["a", "b"], ["b"], ["a", "b"]],
             "target interior table fails I1 at carrier ['a']"),
            ("interior", ["--initial-mode", "paper"], [[], ["a", "b"], ["b"], ["a", "b"]],
             "target interior table fails I1 at carrier ['a']"),
        ],
        ids=["closure", "interior", "interior-paper"],
    )
    def test_initial_target_failing_its_axioms_is_one_line_input_error(
        self, tmp_path, kind, mode, outputs, message
    ):
        # paper mode too: its failing verdict must blame the construction,
        # never the input
        carriers = [[], ["a"], ["b"], ["a", "b"]]
        rows = [list(row) for row in zip(carriers, outputs)]
        table = {"cover": data_path("free2.json"), "kind": kind, "table": rows}
        (tmp_path / "bad.json").write_text(json.dumps(table))
        proc = run_cli("operator", "initial", data_path("id2.json"), "bad.json", *mode, cwd=tmp_path)
        assert proc.returncode == 2
        assert (proc.stdout, proc.stderr) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "size, env", [(17, {}), (3, {"COVLAT_MAX_BASE": "2"})], ids=["hard-cap", "override"]
    )
    @pytest.mark.parametrize(
        "args, what",
        [
            (["trivial_closure_free2.json"], "initial_closure"),
            (["discrete_interior_free2.json", "--kind", "interior"], "initial_interior_corrected"),
            (["discrete_interior_free2.json", "--kind", "interior", "--initial-mode", "paper"],
             "initial_interior_paper"),
        ],
        ids=["closure", "interior-corrected", "interior-paper"],
    )
    def test_initial_lift_over_the_single_cap_is_three(self, tmp_path, size, env, args, what):
        # every lift quantifies over all 2^n source carriers
        names = [f"e{i}" for i in range(size)]
        (tmp_path / "src.json").write_text(json.dumps({"base": names, "axioms": []}))
        rel = {"source": "src.json", "target": data_path("free2.json"), "pairs": [[e, "a"] for e in names]}
        (tmp_path / "rel.json").write_text(json.dumps(rel))
        proc = run_cli("operator", "initial", "rel.json", data_path(args[0]), *args[1:], cwd=tmp_path, env=env)
        assert proc.returncode == 3
        cap = 2 if env else 16
        assert (proc.stdout, proc.stderr) == ("", f"error: {what}: base size {size} exceeds cap {cap}\n")

    @pytest.mark.parametrize(
        "action, kind",
        [(action, kind) for action in cli.OPERATOR_OPERANDS for kind in ("closure", "interior")]
        + [("join", "mixed"), ("meet", "mixed"), ("initial-paper", "closure")],
    )
    def test_every_action_and_kind_prints_the_library_result(self, tmp_path, action, kind):
        from covlat import closure as cl, interior as it

        # "initial-paper" is initial with --initial-mode paper, which only
        # interior tables take
        paper = action == "initial-paper"
        action = "initial" if paper else action
        free2 = load_instance(data_path("free2.json"))
        # an upper and a lower table of each kind; "mixed" pairs an upper
        # closure with a lower interior
        upper = {"closure": cl.trivial_closure(free2), "interior": it.discrete_interior(free2)}
        lower = {"closure": cl.discrete_closure(free2), "interior": it.trivial_interior(free2)}
        first = upper["closure" if kind == "mixed" else kind]
        second = lower["interior" if kind == "mixed" else kind]
        for name, t in [("upper.json", first), ("lower.json", second)]:
            (tmp_path / name).write_text(json.dumps(operator_to_json(t, data_path("free2.json"))))
        m = cli._morphism(Workspace(), data_path("id2.json"))
        files = {
            "verify": ["upper.json"],
            "join": ["upper.json", "lower.json"],
            "meet": ["upper.json", "lower.json"],
            "initial": [data_path("id2.json"), "upper.json"],
            "reflect": ["upper.json"],
            "coreflect": ["upper.json"],
            "continuity": [data_path("id2.json"), "upper.json", "lower.json"],
        }[action]
        proc = run_cli("operator", action, *files, *["--initial-mode", "paper"] * paper, cwd=tmp_path)

        closure = first.kind == "closure"
        exit_code, error = 0, None
        if action == "verify":
            v = (cl.verify_closure_axioms if closure else it.verify_interior_axioms)(first)
            out = dump_json({"file": "upper.json", "verdict": v.to_json(), "pass": v.passed})
            exit_code = 0 if v.passed else 1
        elif action == "continuity":
            v = (cl.is_c_continuous if closure else it.is_i_continuous)(m, first, second)
            out, exit_code = dump_json({"verdict": v.to_json(), "pass": v.passed}), 0 if v.passed else 1
        elif kind == "mixed":
            exit_code, error = 2, "cannot combine closure and interior tables"
        elif paper:
            exit_code, error = 2, "initial --initial-mode paper expects an interior table"
        elif action in ("join", "meet"):
            lib = {
                "join": cl.join_closures if closure else it.join_interiors,
                "meet": cl.meet_closures if closure else it.meet_interiors,
            }[action]
            out = operator_report(lib([first, second]), "<combined>")
        elif action == "initial":
            out = operator_report((cl.initial_closure if closure else it.initial_interior_corrected)(m, first), "<initial>")
        elif closure == (action == "reflect"):
            out = operator_report((cl.reflection if closure else it.coreflection)(first), "<derived>")
        else:
            exit_code, error = 2, f"{action} expects {'a closure' if action == 'reflect' else 'an interior'} table"
        assert proc.returncode == exit_code, proc.stderr
        if error is None:
            assert proc.stdout == out + "\n"
        else:
            assert (proc.stdout, proc.stderr) == ("", f"error: {error}\n")

    @pytest.mark.parametrize("mode", ["paper", "corrected"])
    @pytest.mark.parametrize("action", [a for a in cli.OPERATOR_OPERANDS if a != "initial"])
    def test_initial_mode_outside_initial_is_input_error(self, action, mode):
        files = {
            "verify": ["trivial_closure_free2.json"],
            "join": ["trivial_closure_free2.json"] * 2,
            "meet": ["trivial_closure_free2.json"] * 2,
            "reflect": ["trivial_closure_free2.json"],
            "coreflect": ["discrete_interior_free2.json"],
            "continuity": ["id2.json", "trivial_closure_free2.json", "trivial_closure_free2.json"],
        }[action]
        proc = run_cli("operator", action, *files, "--initial-mode", mode)
        assert proc.returncode == 2
        assert (proc.stdout, proc.stderr) == ("", f"error: {action} takes no --initial-mode\n")

    def test_kind_mismatch_is_input_error(self):
        proc = run_cli(
            "operator", "verify", "trivial_closure_free2.json", "--kind", "interior"
        )
        assert proc.returncode == 2

    def test_reflect_and_continuity(self):
        proc = run_cli("operator", "reflect", "trivial_closure_free2.json")
        assert proc.returncode == 0
        proc = run_cli(
            "operator",
            "continuity",
            "id2.json",
            "trivial_closure_free2.json",
            "trivial_closure_free2.json",
        )
        assert proc.returncode == 0


class TestCertifyCommand:
    def test_seed_stable_output(self):
        a = run_cli("certify", "--samples", "3", "--seed", "5")
        b = run_cli("certify", "--samples", "3", "--seed", "5")
        assert a.returncode == 0

        def strip(text):
            certs = json.loads(text)
            for c in certs:
                c.pop("runtime_s")
            return certs

        assert strip(a.stdout) == strip(b.stdout)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_is_input_error(self, samples):
        proc = run_cli("certify", "--samples", samples)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: --samples must be at least 1, got {samples}\n"

    def test_negative_max_cover_size_is_input_error(self):
        proc = run_cli("certify", "--max-cover-size", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --max-cover-size must be at least 0, got -1\n"

    def test_certificate_without_instances_fails(self):
        # at seed 0 a single sample gives the initial-lift certificate no instance
        proc = run_cli("certify", "--samples", "1")
        assert proc.returncode == 1
        certs = {c["claim"]: c for c in json.loads(proc.stdout)}
        lift = certs["initial-operator-factorization"]
        assert lift["instances"] == 0 and lift["pass"] is False
        assert "FAIL initial-operator-factorization (0 instances)" in proc.stderr


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["m3.json", "free2.json", "chain.json"])
    def test_instance_parse_serialize_parse(self, name):
        cover = load_instance(data_path(name))
        text = dump_json(instance_to_json(cover))
        again = parse_instance(json.loads(text))
        assert again.base == cover.base
        assert again.axioms == cover.axioms
        assert dump_json(instance_to_json(again)) == text

    def test_operator_round_trip(self):
        ws = Workspace()
        path = data_path("trivial_closure_free2.json")
        table = ws.operator_file(path, "closure")
        js = operator_to_json(table, "free2.json")
        mapping = {
            table.parent.base.subset(row[0]).mask: table.parent.base.subset(row[1]).mask
            for row in js["table"]
        }
        from covlat import ClosureTable

        assert ClosureTable.from_mapping(table.parent, mapping).table == table.table
