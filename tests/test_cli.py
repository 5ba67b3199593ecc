"""Command line behavior: subcommands, reports, exit codes, fix application."""

import contextlib
import errno
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from codecs import BOM_UTF8
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, check_source
from oracles import oracle_collect_fix_edits
from rslkit import cli
from rslkit.cli import collect_fix_edits, main
from rslkit.lexicon import load_lexicon
from rslkit.model import Diagnostic, QuickFix, SourceSpan, TextEdit
from rslkit.parser import BODY_KEYWORDS, TOP_KEYWORDS
from test_lexer import PIECES
from test_template import DIGIT_LIMIT, needs_digit_limit


def copy_fixture(tmp_path, name):
    dst = tmp_path / name
    shutil.copy(FIXTURES / name, dst)
    return dst


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# RSL-like text: every character class of the lexer plus every keyword.
RSL_PIECES = PIECES + [k + " " for k in sorted(TOP_KEYWORDS | BODY_KEYWORDS)]


class TestCheck:
    def test_clean_exits_zero(self, capsys):
        code, out, _ = run(["check", str(FIXTURES / "billing_clean.rsl")], capsys)
        assert code == 0
        assert "0 error(s), 0 warning(s)" in out

    def test_defects_exit_one(self, capsys):
        code, out, _ = run(["check", str(FIXTURES / "billing_defects.rsl")], capsys)
        assert code == 1
        assert "RSL-V001" in out and "RSL-V002" in out and "RSL-V003" in out

    def test_byte_order_mark_is_not_a_declaration(self, tmp_path, capsys):
        doc = tmp_path / "billing_clean.rsl"
        doc.write_bytes(BOM_UTF8 + (FIXTURES / "billing_clean.rsl").read_bytes())
        code, out, _ = run(["check", "--format", "json", str(doc)], capsys)
        assert code == 0
        assert [d for f in json.loads(out)["files"] for d in f["diagnostics"]] == []

    def test_human_format_line_structure(self, capsys):
        path = str(FIXTURES / "billing_defects.rsl")
        _, out, _ = run(["check", path], capsys)
        first = next(line for line in out.splitlines() if "RSL-V001" in line)
        location, rest = first.split(": error ", 1)
        fname, line_no, col = location.rsplit(":", 2)
        assert fname == path and line_no.isdigit() and col.isdigit()
        assert rest.startswith("RSL-V001:")

    def test_json_report_round_trips(self, capsys):
        path = str(FIXTURES / "billing_defects.rsl")
        code, out, _ = run(["check", "--format", "json", path], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["version"] == 1
        (entry,) = [f for f in report["files"] if f["path"] == path]
        codes = {d["code"] for d in entry["diagnostics"]}
        assert {"RSL-V001", "RSL-V002", "RSL-V003", "RSL-L001"} <= codes
        for d in entry["diagnostics"]:
            assert {"code", "severity", "message", "range", "fixes"} <= set(d)
            assert d["range"]["start"]["line"] >= 1

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(["check", "no_such_file.rsl"], capsys)
        assert code == 2
        assert "cannot read" in err

    def test_include_needs_system_mapping(self, capsys):
        path = str(FIXTURES / "billing_include.rsl")
        code, out, _ = run(["check", path], capsys)
        assert code == 1  # unresolved system
        code, out, _ = run(
            ["check", path, "--system", f"SystemRules={FIXTURES / 'system_rules.rsl'}"],
            capsys,
        )
        assert code == 0
        assert "RSL-I001" in out

    def test_manifest_mapping(self, tmp_path, capsys):
        doc = copy_fixture(tmp_path, "billing_include.rsl")
        copy_fixture(tmp_path, "system_rules.rsl")
        manifest = tmp_path / "workspace.txt"
        manifest.write_text("SystemRules=system_rules.rsl\n")
        code, _, _ = run(["check", str(doc), "--manifest", str(manifest)], capsys)
        assert code == 0

    def test_manifest_skips_blank_and_comment_lines(self, tmp_path, capsys):
        doc = copy_fixture(tmp_path, "billing_include.rsl")
        copy_fixture(tmp_path, "system_rules.rsl")
        manifest = tmp_path / "workspace.txt"
        manifest.write_text("# shared rules\n\n   \nSystemRules=system_rules.rsl\n")
        code, out, _ = run(["check", str(doc), "--manifest", str(manifest)], capsys)
        assert code == 0 and "RSL-I001" in out

    def test_manifest_byte_order_mark_is_not_data(self, tmp_path, capsys):
        doc = copy_fixture(tmp_path, "billing_include.rsl")
        copy_fixture(tmp_path, "system_rules.rsl")
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text("SystemRules=system_rules.rsl\n", encoding="utf-8")
        marked.write_bytes(BOM_UTF8 + plain.read_bytes())
        expected = run(["check", str(doc), "--manifest", str(plain)], capsys)
        assert "RSL-I001" in expected[1] and "RSL-R002" not in expected[1]
        assert run(["check", str(doc), "--manifest", str(marked)], capsys) == expected

    def test_system_mapping_without_a_value_is_a_usage_error(self, capsys):
        code, out, err = run(["check", str(FIXTURES / "billing_clean.rsl"), "--system", "SystemRules"], capsys)
        assert (code, out, err) == (2, "", "error: bad --system mapping 'SystemRules' (expected name=value)\n")

    def test_two_files_with_one_system_id_are_a_usage_error(self, tmp_path, capsys):
        for sub, fixture in (("a", "billing_clean.rsl"), ("b", "billing_defects.rsl")):
            (tmp_path / sub).mkdir()
            shutil.copy(FIXTURES / fixture, tmp_path / sub / "spec.rsl")
        a, b = tmp_path / "a" / "spec.rsl", tmp_path / "b" / "spec.rsl"
        code, out, err = run(["check", str(a), str(b)], capsys)
        assert code == 2 and out == ""
        assert err == (
            f"error: system id 'spec' names two files, '{a}' and '{b}'; "
            "give one of them its own id with --system NAME=PATH\n"
        )
        code, out, _ = run(["check", str(a), str(b), "--system", f"other={b}"], capsys)
        assert code == 1 and "RSL-V001" in out

    @pytest.mark.parametrize("line", ["=system_rules.rsl", "SystemRules="])
    def test_manifest_line_without_id_or_path_is_a_usage_error(self, line, tmp_path, capsys):
        doc = copy_fixture(tmp_path, "billing_clean.rsl")
        copy_fixture(tmp_path, "system_rules.rsl")
        manifest = tmp_path / "workspace.txt"
        manifest.write_text(line + "\n")
        code, out, err = run(["check", str(doc), "--manifest", str(manifest)], capsys)
        assert (code, out, err) == (2, "", f"error: bad manifest line '{line}'\n")

    def test_manifest_path_with_a_nul_byte_is_a_usage_error(self, tmp_path, capsys):
        doc = copy_fixture(tmp_path, "billing_defects.rsl")
        manifest = tmp_path / "m.txt"
        manifest.write_bytes(b"A=figure7\0.rsl\n")
        code, out, err = run(["check", "--manifest", str(manifest), str(doc)], capsys)
        message = "error: bad manifest line 'A=figure7\\x00.rsl': a path cannot hold a NUL byte\n"
        assert (code, out, err) == (2, "", message)

    def test_manifest_id_equal_to_a_stem_of_another_file_is_a_usage_error(self, tmp_path, capsys):
        doc = copy_fixture(tmp_path, "billing_clean.rsl")
        manifest = tmp_path / "workspace.txt"
        manifest.write_text("billing_clean=system_rules.rsl\n")
        copy_fixture(tmp_path, "system_rules.rsl")
        code, _, err = run(["check", str(doc), "--manifest", str(manifest)], capsys)
        assert code == 2
        assert f"system id 'billing_clean' names two files, '{tmp_path / 'system_rules.rsl'}' and '{doc}'" in err

    def test_one_file_by_several_spellings_is_one_system(self, tmp_path, capsys, monkeypatch):
        doc = copy_fixture(tmp_path, "billing_include.rsl")
        copy_fixture(tmp_path, "system_rules.rsl")
        (tmp_path / "workspace.txt").write_text("Main=billing_include.rsl\nSystemRules=system_rules.rsl\n")
        monkeypatch.chdir(tmp_path)
        check = ["check", "--format", "json", "--manifest", "workspace.txt"]
        expected = run(check + ["billing_include.rsl"], capsys)
        assert expected[0] == 0
        assert run(check + ["billing_include.rsl", "./billing_include.rsl", str(doc)], capsys) == expected
        for spelling in ("./billing_include.rsl", str(doc)):
            run(["gen", "json", spelling, "--manifest", "workspace.txt", "-o", "out.json"], capsys)
            assert list(json.loads((tmp_path / "out.json").read_text())["systems"]) == ["Main"]

    @pytest.mark.parametrize("name, count", [("billing_defects.rsl", 8), ("billing_clean.rsl", 0)])
    def test_json_report_lists_a_target_once_under_the_name_given(self, name, count, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        plain = json.loads(run(["check", "--format", "json", name], capsys)[1])
        dotted = json.loads(run(["check", "--format", "json", "./" + name], capsys)[1])
        assert [(f["path"], len(f["diagnostics"])) for f in dotted["files"]] == [("./" + name, count)]
        assert dotted["files"] == [{**plain["files"][0], "path": "./" + name}]


class TestFix:
    def test_dry_run_leaves_file_untouched(self, tmp_path, capsys):
        doc = copy_fixture(tmp_path, "billing_defects.rsl")
        before = doc.read_text()
        code, out, _ = run(["fix", "--dry-run", "--create-missing", str(doc)], capsys)
        assert doc.read_text() == before
        assert "---" in out and "+++" in out  # unified diff shown
        assert code == 0  # post-fix state would be error free

    def test_apply_then_recheck_clean(self, tmp_path, capsys):
        doc = copy_fixture(tmp_path, "billing_defects.rsl")
        code, _, _ = run(["fix", "--apply", "--create-missing", str(doc)], capsys)
        assert code == 0
        code, out, _ = run(["check", str(doc)], capsys)
        assert code == 0
        assert "0 error(s), 0 warning(s)" in out

    def test_apply_is_idempotent(self, tmp_path, capsys):
        doc = copy_fixture(tmp_path, "billing_defects.rsl")
        run(["fix", "--apply", "--create-missing", str(doc)], capsys)
        after_first = doc.read_text()
        run(["fix", "--apply", "--create-missing", str(doc)], capsys)
        assert doc.read_text() == after_first

    def test_rename_avoids_an_id_already_in_use(self, tmp_path, capsys):
        doc = tmp_path / "spec.rsl"
        doc.write_text("Actor a_X : User\nActor a_X : User\nActor a_X_2 : User\n")
        assert run(["fix", "--apply", str(doc)], capsys)[0] == 0
        assert doc.read_text() == "Actor a_X : User\nActor a_X_3 : User\nActor a_X_2 : User\n"

    def test_without_create_missing_rule_violation_remains(self, tmp_path, capsys):
        doc = copy_fixture(tmp_path, "billing_defects.rsl")
        code, _, _ = run(["fix", "--apply", str(doc)], capsys)
        assert code == 1  # the missing-entity error persists
        _, out, _ = run(["check", str(doc)], capsys)
        assert "RSL-L001" in out and "RSL-V001" not in out

    @pytest.mark.xfail(
        strict=True,
        reason="recovery stays at bracket depth 1 after the stray '[ [', so the Stakeholder and every "
        "element a fix appends after it are dropped unseen, and each round appends the same element again",
    )
    def test_repeated_fixes_reach_a_fixed_point(self, tmp_path, capsys):
        doc = tmp_path / "spec.rsl"
        doc.write_text(
            'LinguisticRule LR_1 "Use Case name" : Syntax [\n'
            "  property UseCase.name\n"
            "  pattern Verb + (DataEntity.name)\n"
            "  severity Error\n"
            "]\n"
            'DataEntity e_Invoice "Invoice" : Other\n'
            'UseCase uc_1 "Archive Receipt" : Other\n'
            'UseCase uc_2 "Print Invoice" : Other [\n'
            "  primaryActor sh_Op sh_FinanceTeam [ [\n"
            "]\n"
            'Stakeholder sh_Op "Operator" : Other\n'
        )
        sizes = [len(doc.read_text())]
        for _ in range(3):
            run(["fix", "--apply", "--create-missing", str(doc)], capsys)
            sizes.append(len(doc.read_text()))
            if sizes[-1] == sizes[-2] and "ec_Receipt" in doc.read_text():
                return
        pytest.fail(f"no fixed point within three rounds; sizes {sizes}")

    def test_mode_flag_required(self, capsys):
        code, _, _ = run(["fix", str(FIXTURES / "billing_defects.rsl")], capsys)
        assert code == 2

    def test_clean_file_reports_nothing_to_do(self, tmp_path, capsys):
        doc = copy_fixture(tmp_path, "billing_clean.rsl")
        code, out, _ = run(["fix", "--apply", str(doc)], capsys)
        assert code == 0
        assert "no applicable fixes" in out

    def test_apply_writes_through_a_temporary_file_and_keeps_the_mode(self, tmp_path, capsys, monkeypatch):
        doc = copy_fixture(tmp_path, "billing_defects.rsl")
        doc.chmod(0o640)
        renames = []
        real_replace = os.replace

        def replace(src, dst):
            renames.append((os.path.dirname(src), str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        run(["fix", "--apply", str(doc)], capsys)
        assert renames == [(str(tmp_path), str(doc))]
        assert doc.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == [doc.name]

    def test_apply_keeps_a_byte_order_mark(self, tmp_path, capsys):
        plain = copy_fixture(tmp_path, "billing_defects.rsl")
        marked = tmp_path / "marked.rsl"
        marked.write_bytes(BOM_UTF8 + plain.read_bytes())
        run(["fix", "--apply", str(plain)], capsys)
        _, out, _ = run(["fix", "--apply", str(marked)], capsys)
        assert "applied fixes to 1 file(s)" in out
        assert marked.read_bytes() == BOM_UTF8 + plain.read_bytes()  # the same fixes, one character later

    def test_apply_through_a_symlink_fixes_its_target_and_keeps_the_link(self, tmp_path, capsys):
        plain = copy_fixture(tmp_path, "billing_defects.rsl")
        target = tmp_path / "specs" / "target.rsl"
        target.parent.mkdir()
        shutil.copy(plain, target)
        link = tmp_path / "link.rsl"
        link.symlink_to(Path("specs") / "target.rsl")
        run(["fix", "--apply", str(plain)], capsys)
        code, out, _ = run(["fix", "--apply", str(link)], capsys)
        assert "applied fixes to 1 file(s)" in out
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == plain.read_bytes()
        assert code == run(["check", str(link)], capsys)[0]
        assert sorted(p.name for p in target.parent.iterdir()) == [target.name]

    def test_file_changed_since_check_is_not_overwritten(self, tmp_path, capsys, monkeypatch):
        doc = copy_fixture(tmp_path, "billing_defects.rsl")
        edited = doc.read_text() + "\nActor a_Late \"Late\" : User\n"
        real_check_all = cli.check_all

        def check_all_then_edit(*args):
            diags = real_check_all(*args)
            if doc.read_text() != edited:
                doc.write_text(edited)
            return diags

        monkeypatch.setattr(cli, "check_all", check_all_then_edit)
        code, out, _ = run(["fix", "--apply", str(doc)], capsys)
        assert f"skipped fixes for {doc}: file changed on disk since it was checked" in out
        assert "no applicable fixes" not in out  # there were fixes; none could be written
        assert "applied fixes to 0 file(s)" in out
        assert doc.read_text() == edited
        assert code == 1  # the re-check still sees the defects

    def test_conflicting_fixes_to_a_shared_file_keep_the_first(self, tmp_path, capsys, monkeypatch):
        """Two targets include `c`, and each renames its duplicate to a different free id."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.rsl").write_text("IncludeAll fromSystem c\nActor x_2 : User\n")
        (tmp_path / "b.rsl").write_text("IncludeAll fromSystem c\n")
        (tmp_path / "c.rsl").write_text("Actor x : User\n\nActor x : User\n")
        code, out, _ = run(["fix", "--dry-run", "a.rsl", "b.rsl", "--system", "c=c.rsl"], capsys)
        assert code == 1
        assert out.splitlines()[0] == "skipped conflicting fix 'Rename to 'x_2'' at c.rsl:3 (re-run fix)"
        assert "+Actor x_3 : User" in out and "+Actor x_2 : User" not in out
        assert [line for line in out.splitlines() if line.startswith("--- ")] == ["--- a.rsl", "--- b.rsl", "--- c.rsl"]

    def test_file_deleted_since_check_is_not_recreated(self, tmp_path, capsys, monkeypatch):
        doc = copy_fixture(tmp_path, "billing_defects.rsl")
        real_check_all = cli.check_all

        def check_all_then_delete(*args):
            diags = real_check_all(*args)
            doc.unlink(missing_ok=True)
            return diags

        monkeypatch.setattr(cli, "check_all", check_all_then_delete)
        code, out, _ = run(["fix", "--apply", str(doc)], capsys)
        assert f"skipped fixes for {doc}: file changed on disk since it was checked" in out
        assert "applied fixes to 0 file(s)" in out
        assert list(tmp_path.iterdir()) == []
        assert code == 1

    @pytest.mark.parametrize("failing", ["mkstemp", "replace"])
    def test_write_failure_is_a_usage_error_and_leaves_no_temporary_file(self, failing, tmp_path, capsys, monkeypatch):
        doc = copy_fixture(tmp_path, "billing_defects.rsl")
        before = doc.read_text()

        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tempfile if failing == "mkstemp" else os, failing, fail)
        code, out, err = run(["fix", "--apply", str(doc)], capsys)
        assert code == 2 and "applied fixes" not in out
        assert err == f"error: cannot write '{doc}': [Errno 28] No space left on device\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [doc.name]
        assert doc.read_text() == before

    def test_dry_run_reads_each_file_once(self, tmp_path, capsys, monkeypatch):
        doc = copy_fixture(tmp_path, "billing_defects.rsl")
        reads = []
        real_read = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(str(self)) or real_read(self))
        code, out, _ = run(["fix", "--dry-run", "--create-missing", str(doc)], capsys)
        assert code == 0 and "+++" in out
        assert reads == [str(doc)]


@st.composite
def fix_diagnostics(draw):
    """Diagnostics whose fixes edit two files with edits that coincide, overlap, touch or insert at one point."""
    edit = st.builds(
        lambda file, offset, length, text: TextEdit(SourceSpan(file, offset, 1, offset, 1, offset, length), text),
        st.sampled_from(["a.rsl", "b.rsl"]),
        st.integers(0, 12),
        st.integers(0, 3),
        st.sampled_from(["", "x", "yy"]),
    )
    fix = st.builds(QuickFix, st.sampled_from(["Rename", "Delete"]), st.lists(edit, max_size=3).map(tuple))
    diagnostic = st.builds(
        lambda code, fixes: Diagnostic("Error", code, "m", SourceSpan("a.rsl", 1, 1, 1, 1, 0, 0), fixes=tuple(fixes)),
        st.sampled_from(["RSL-V001", "RSL-V003", "RSL-I001", "RSL-L001", "RSL-R001"]),
        st.lists(fix, max_size=2),
    )
    return draw(st.lists(diagnostic, max_size=12))


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(fix_diagnostics(), st.booleans())
def test_collect_fix_edits_chooses_what_the_oracle_chooses(diags, create_missing):
    """The same edits, merges and notices as testing every chosen edit; each file's edits come in offset order."""
    per_file, notices = collect_fix_edits(diags, create_missing)
    want, want_notices = oracle_collect_fix_edits(diags, create_missing)
    assert notices == want_notices
    assert list(per_file) == list(want)
    for file, edits in want.items():
        assert per_file[file] == sorted(edits, key=lambda e: (e.span.offset, e.span.end_offset))


class TestLineEndings:
    """`fix` writes back the line endings it read, and "\\r\\n" or a lone "\\r" ends a line as "\\n" does."""

    SPEC = 'Actor a_1 "Clerk" : User\n\nActor a_1 "Clerk" : User\n// the end\n'

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_apply_changes_only_the_fixed_line(self, newline, tmp_path, capsys):
        doc = tmp_path / "spec.rsl"
        doc.write_bytes(self.SPEC.replace("\n", newline).encode("utf-8"))
        code, out, _ = run(["fix", "--dry-run", str(doc)], capsys)
        changed = [line for line in out.splitlines() if line[:1] in "+-" and line[:3] not in ("+++", "---")]
        assert code == 0 and changed == ['-Actor a_1 "Clerk" : User', '+Actor a_1_2 "Clerk" : User']
        code, out, _ = run(["fix", "--apply", str(doc)], capsys)
        fixed = self.SPEC.replace('\nActor a_1 "', '\nActor a_1_2 "').replace("\n", newline)
        assert code == 0 and doc.read_bytes() == fixed.encode("utf-8")

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.rsl")))
    def test_crlf_and_cr_twins_of_a_fixture_report_what_it_reports(self, name, tmp_path, capsys):
        shutil.copy(FIXTURES / "system_rules.rsl", tmp_path)
        extra = ["--system", f"SystemRules={tmp_path / 'system_rules.rsl'}"] if name == "billing_include.rsl" else []
        text = (FIXTURES / name).read_text(encoding="utf-8")
        reports = []
        for newline in ("\n", "\r\n", "\r"):
            doc = tmp_path / name
            doc.write_bytes(text.replace("\n", newline).encode("utf-8"))
            code, out, _ = run(["check", "--format", "json", str(doc), *extra], capsys)
            reports.append((code, json.loads(out)["files"]))
        assert reports[1] == reports[0] and reports[2] == reports[0]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from([p for p in RSL_PIECES if "\r" not in p]), max_size=60).map("".join))
    def test_twins_of_rsl_like_text_report_what_it_reports(self, source):
        def seen(text):
            return [
                (d.code, d.message, d.span.start_line, d.span.start_col, d.span.end_line, d.span.end_col)
                for d in check_source(text)[1]
            ]

        assert seen(source.replace("\n", "\r\n")) == seen(source) == seen(source.replace("\n", "\r"))


class TestGen:
    def test_json_generation(self, tmp_path, capsys):
        out_path = tmp_path / "doc.json"
        code, _, _ = run(
            ["gen", "json", str(FIXTURES / "billing_clean.rsl"), "-o", str(out_path)], capsys
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["language"] == "English"

    def test_text_generation(self, tmp_path, capsys):
        out_path = tmp_path / "doc.txt"
        code, _, _ = run(
            ["gen", "text", str(FIXTURES / "billing_clean.rsl"), "-o", str(out_path)], capsys
        )
        assert code == 0
        assert "== UseCase:" in out_path.read_text()

    def test_template_generation(self, tmp_path, capsys):
        out_path = tmp_path / "doc.txt"
        code, _, _ = run(
            [
                "gen",
                "template",
                str(FIXTURES / "billing_clean.rsl"),
                "--template",
                str(FIXTURES / "stakeholders.tpl"),
                "-o",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        assert out_path.read_text().startswith("Stakeholder Finance Team")

    @pytest.mark.parametrize("kind", ["json", "text", "template"])
    def test_invalid_spec_refused_for_all_kinds(self, kind, tmp_path, capsys):
        out_path = tmp_path / "out"
        argv = ["gen", kind, str(FIXTURES / "billing_defects.rsl"), "-o", str(out_path)]
        if kind == "template":
            argv += ["--template", str(FIXTURES / "stakeholders.tpl")]
        code, out, _ = run(argv, capsys)
        assert code == 1
        assert not out_path.exists(), "refused generation must not write output"
        assert "generation refused" in out

    def test_template_kind_requires_template(self, tmp_path, capsys):
        code, _, err = run(
            ["gen", "template", str(FIXTURES / "billing_clean.rsl"), "-o", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2

    def test_strict_template_error_exits_one(self, tmp_path, capsys):
        out_path = tmp_path / "x"
        code, _, err = run(
            [
                "gen",
                "template",
                str(FIXTURES / "billing_clean.rsl"),
                "--template",
                str(FIXTURES / "unknown_tag.tpl"),
                "-o",
                str(out_path),
            ],
            capsys,
        )
        assert code == 1
        assert "template error" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "template",
        ["{" + "(" * 2000 + "x" + ")" * 2000 + "}", "{#a}" * 1500 + "x" + "{/a}" * 1500],
        ids=["expression", "sections"],
    )
    def test_deeply_nested_template_is_a_template_error(self, template, tmp_path, capsys):
        tpl = tmp_path / "deep.tpl"
        tpl.write_text(template, encoding="utf-8")
        out_path = tmp_path / "x"
        argv = ["gen", "template", str(FIXTURES / "billing_clean.rsl"), "--template", str(tpl), "-o", str(out_path)]
        code, _, err = run(argv + ["--lenient"], capsys)
        assert code == 1
        assert err.startswith("template error: ") and "nested deeper than" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "template",
        [
            pytest.param("{" + "1" * (DIGIT_LIMIT + 1) + "}", marks=needs_digit_limit),
            "{" + "9" * 400 + " / 1}",
            "{" + "9" * 400 + " + 1.5}",
            pytest.param("{" + "9" * (DIGIT_LIMIT // 2 + 1) + " * " + "9" * (DIGIT_LIMIT // 2 + 1) + "}", marks=needs_digit_limit),
            "{useCases[" + "9" * 400 + ".0]}",
        ],
        ids=["literal too long", "quotient overflows", "sum overflows", "product too long to print", "infinite index"],
    )
    def test_numbers_out_of_range_are_a_template_error(self, template, tmp_path, capsys):
        tpl = tmp_path / "numbers.tpl"
        tpl.write_text(template, encoding="utf-8")
        out_path = tmp_path / "x"
        argv = ["gen", "template", str(FIXTURES / "billing_clean.rsl"), "--template", str(tpl), "-o", str(out_path)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("template error: ") and "Traceback" not in err
        assert not out_path.exists()

    def test_error_in_a_section_names_the_section(self, tmp_path, capsys):
        tpl = tmp_path / "section.tpl"
        tpl.write_text("{#1/0}x{/1/0}", encoding="utf-8")
        argv = ["gen", "template", str(FIXTURES / "billing_clean.rsl"), "--template", str(tpl), "-o", str(tmp_path / "x")]
        assert run(argv, capsys) == (1, "", "template error: section '{#1/0}' at offset 0: division by zero\n")

    def test_lenient_template_succeeds(self, tmp_path, capsys):
        out_path = tmp_path / "x"
        code, _, _ = run(
            [
                "gen",
                "template",
                str(FIXTURES / "billing_clean.rsl"),
                "--template",
                str(FIXTURES / "unknown_tag.tpl"),
                "-o",
                str(out_path),
                "--lenient",
            ],
            capsys,
        )
        assert code == 0
        assert out_path.read_text() == "Hello !\n"


def test_gen_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "doc.json"
    code, out, err = run(["gen", "json", str(FIXTURES / "billing_clean.rsl"), "-o", str(out_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output: [Errno 2] No such file or directory")
    assert list(tmp_path.iterdir()) == []


def test_the_report_escapes_non_ascii_and_gen_json_writes_utf8(tmp_path, capsys):
    # The Term's name holds an accented word, a non-BMP character, a tab and an escaped quote;
    # the synonym in the DataEntity's name carries it into a V002 message, fix title and edit.
    main_word = 'Façade \U0001f4c4\t"Doc"'
    spec = tmp_path / "spec.rsl"
    spec.write_text(
        'Term t_Facade "Façade \U0001f4c4\t\\"Doc\\"" : Noun [\n  synonyms "Front"\n]\n\n'
        'DataEntity e_Front "Front" : Document [\n  description "Cover \U0001f4c4\t\\"draft\\""\n]\n',
        encoding="utf-8",
    )
    code, out, _ = run(["check", "--format", "json", str(spec)], capsys)
    assert code == 0 and out.isascii()
    escaped = '"Fa\\u00e7ade \\ud83d\\udcc4\\t\\"Doc\\""'
    assert f'"newText": {escaped}\n' in out
    assert f"\"message\": \"Replace the word 'Front' by the main word '{escaped[1:-1]}'\"" in out
    [diag] = json.loads(out)["files"][0]["diagnostics"]
    assert diag["code"] == "RSL-V002" and diag["fixes"][0]["edits"][0]["newText"] == main_word

    out_path = tmp_path / "doc.json"
    assert run(["gen", "json", str(spec), "-o", str(out_path)], capsys)[0] == 0
    data = out_path.read_bytes()
    assert '"name": "Façade \U0001f4c4\\t\\"Doc\\""'.encode("utf-8") in data
    assert '"description": "Cover \U0001f4c4\\t\\"draft\\""'.encode("utf-8") in data
    assert json.loads(data)["elements"]["terms"][0]["name"] == main_word


class TestUndecodableInput:
    """A file that is not UTF-8 is a usage error (exit 2), never a traceback."""

    LATIN1 = b'Actor a_x "Caf\xe9" : User\n'

    def assert_usage_error(self, argv, capsys, what):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert f"error: cannot read {what}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["check"], ["fix", "--dry-run"], ["gen", "json"]], ids=["check", "fix", "gen"])
    def test_spec(self, argv, tmp_path, capsys):
        spec = tmp_path / "latin1.rsl"
        spec.write_bytes(self.LATIN1)
        argv = argv + [str(spec)] + (["-o", str(tmp_path / "x")] if argv[0] == "gen" else [])
        self.assert_usage_error(argv, capsys, f"'{spec}'")

    def test_template(self, tmp_path, capsys):
        tpl = tmp_path / "latin1.tpl"
        tpl.write_bytes(b"Caf\xe9 {name}\n")
        argv = ["gen", "template", str(FIXTURES / "billing_clean.rsl"), "--template", str(tpl)]
        self.assert_usage_error(argv + ["-o", str(tmp_path / "x")], capsys, "template")

    def test_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "workspace.txt"
        manifest.write_bytes(b"Syst\xe8me=system_rules.rsl\n")
        argv = ["check", str(FIXTURES / "billing_clean.rsl"), "--manifest", str(manifest)]
        self.assert_usage_error(argv, capsys, "manifest")

    def test_lexicon(self, tmp_path, capsys):
        lexicon = tmp_path / "en.tsv"
        lexicon.write_bytes(b"caf\xe9\tNOUN\n")
        argv = ["check", str(FIXTURES / "billing_clean.rsl"), "--lexicon", f"English={lexicon}"]
        self.assert_usage_error(argv, capsys, "lexicon")


class TestReadErrorText:
    """The exact text of a read failure: the path as given, then the reason."""

    MISSING = "[Errno 2] No such file or directory: "
    UNDECODABLE = "'utf-8' codec can't decode byte 0xe9 in position 14: invalid continuation byte"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["./x.rsl"], f"'./x.rsl': {MISSING}'x.rsl'"),
            (["./latin1.rsl"], f"'./latin1.rsl': {UNDECODABLE}"),
            (["main.rsl", "--system", "X=./y.rsl"], f"'./y.rsl': {MISSING}'y.rsl'"),
            (["main.rsl", "--system", "X=./latin1.rsl"], f"'./latin1.rsl': {UNDECODABLE}"),
            (["main.rsl", "--manifest", "sub/missing.txt"], f"'sub/z.rsl': {MISSING}'sub/z.rsl'"),
            (["main.rsl", "--manifest", "sub/latin1.txt"], f"'sub/latin1.rsl': {UNDECODABLE}"),
        ],
        ids=["target-missing", "target-latin1", "system-missing", "system-latin1", "manifest-missing", "manifest-latin1"],
    )
    def test_exact_message(self, argv, message, tmp_path, capsys, monkeypatch):
        """The path as given, then the reason, which names the path as `Path` normalizes it."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "main.rsl").write_text('Actor a_1 "Clerk" : User\n')
        for spec in ("latin1.rsl", "sub/latin1.rsl"):
            (tmp_path / spec).write_bytes(TestUndecodableInput.LATIN1)
        (tmp_path / "sub" / "missing.txt").write_text("X=./z.rsl\n")
        (tmp_path / "sub" / "latin1.txt").write_text("X=./latin1.rsl\n")
        code, out, err = run(["check", *argv], capsys)
        assert (code, out, err) == (2, "", f"error: cannot read {message}\n")

    def test_first_problem_in_argument_order_is_reported(self, tmp_path, capsys, monkeypatch):
        """A target that cannot be read is reported before a later id clash, and after an earlier one."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        for main in ("main.rsl", "sub/main.rsl"):
            (tmp_path / main).write_text('Actor a_1 "Clerk" : User\n')
        code, _, err = run(["check", "./x.rsl", "main.rsl", "sub/main.rsl"], capsys)
        assert (code, err) == (2, f"error: cannot read './x.rsl': {self.MISSING}'x.rsl'\n")
        code, _, err = run(["check", "main.rsl", "sub/main.rsl", "./x.rsl"], capsys)
        assert code == 2 and err.startswith("error: system id 'main' names two files, 'main.rsl' and 'sub/main.rsl'")


def test_lexicon_override_decides_l001(tmp_path, capsys):
    """A `--lexicon` file and its `.rules` companion replace the built-in lexicon for checking."""
    data = Path(cli.__file__).parent / "data"
    custom = tmp_path / "custom.tsv"
    lines = (data / "en.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    # "print" is a verb and a noun in the built-in lexicon; the custom one knows only the noun.
    verbs = ("print\tprint\tVERB\n", "prints\tprint\tVERB\n")
    custom.write_text("".join(line for line in lines if line not in verbs), encoding="utf-8")
    shutil.copy(data / "en.rules", tmp_path / "custom.tsv.rules")
    spec = str(FIXTURES / "billing_clean.rsl")
    code, out, _ = run(["check", spec], capsys)
    assert code == 0 and "RSL-L001" not in out
    code, out, _ = run(["check", spec, "--lexicon", f"English={custom}"], capsys)
    assert code == 1
    # "Print Invoice" and "System shall print Invoice" now lack a verb.
    assert [line.split(": error RSL-L001")[0] for line in out.splitlines() if "RSL-L001" in line] == [
        f"{spec}:73:28",
        f"{spec}:101:16",
    ]


def test_lexicon_and_suffix_rules_with_a_byte_order_mark_read_as_without(tmp_path, capsys):
    data = Path(cli.__file__).parent / "data"
    spec = str(FIXTURES / "billing_defects.rsl")
    lexicons, results = [], []
    for name, mark in (("plain", b""), ("marked", BOM_UTF8)):
        lexicon = tmp_path / name / "en.tsv"
        lexicon.parent.mkdir()
        lexicon.write_bytes(mark + (data / "en.tsv").read_bytes())
        (tmp_path / name / "en.tsv.rules").write_bytes(mark + (data / "en.rules").read_bytes())
        lexicons.append(load_lexicon(str(lexicon), str(lexicon) + ".rules"))
        results.append(run(["check", spec, "--lexicon", f"English={lexicon}"], capsys))
    assert lexicons[1] == lexicons[0]
    assert results[1] == results[0] and results[0][0] == 1


@pytest.mark.parametrize("argv", [["check"], ["fix", "--dry-run"], ["gen", "json"]], ids=["check", "fix", "gen"])
def test_lexicon_for_a_language_no_spec_declares_is_a_usage_error(argv, tmp_path, capsys):
    """A spec can declare only a language of `model.LANGUAGES`, so a lexicon for any other could never be read."""
    lexicon = Path(cli.__file__).parent / "data" / "en.tsv"
    argv = argv + [str(FIXTURES / "billing_defects.rsl"), "--lexicon", f"Englsh={lexicon}"]
    code, out, err = run(argv + (["-o", str(tmp_path / "x")] if argv[0] == "gen" else []), capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: unknown --lexicon language 'Englsh' "
        "(expected one of English, Spanish, German, French, Italian, Portuguese, Japanese)\n"
    )
    assert not (tmp_path / "x").exists()


class TestMalformedLexicon:
    """A `--lexicon` file, or its `.rules` companion, that breaks the format is a usage error (exit 2)."""

    COMMANDS = [["check"], ["fix", "--dry-run"], ["gen", "json"]]

    def run_with(self, argv, lexicon, tmp_path, capsys):
        argv = argv + [str(FIXTURES / "billing_clean.rsl"), "--lexicon", f"English={lexicon}"]
        code, _, err = run(argv + (["-o", str(tmp_path / "x")] if argv[0] == "gen" else []), capsys)
        assert code == 2
        assert not (tmp_path / "x").exists()
        return err

    @pytest.mark.parametrize("argv", COMMANDS, ids=["check", "fix", "gen"])
    def test_lexicon_line(self, argv, tmp_path, capsys):
        lexicon = tmp_path / "en.tsv"
        lexicon.write_text("invoice\tinvoice\tNOUN\ncafe\tcafe\tNOUNISH\n", encoding="utf-8")
        err = self.run_with(argv, lexicon, tmp_path, capsys)
        assert err == f"error: cannot read lexicon '{lexicon}': {lexicon}:2: unknown UPOS tag 'NOUNISH'\n"

    @pytest.mark.parametrize("argv", COMMANDS, ids=["check", "fix", "gen"])
    def test_rules_line(self, argv, tmp_path, capsys):
        lexicon = tmp_path / "en.tsv"
        lexicon.write_text("invoice\tinvoice\tNOUN\n", encoding="utf-8")
        (tmp_path / "en.tsv.rules").write_text("# suffixes\ning\tVERB\t:\n", encoding="utf-8")
        err = self.run_with(argv, lexicon, tmp_path, capsys)
        assert err == (
            f"error: cannot read lexicon '{lexicon}': {lexicon}.rules:2: expected -suffix<TAB>UPOS<TAB>strip:append\n"
        )

    def test_rules_upos(self, tmp_path, capsys):
        lexicon = tmp_path / "en.tsv"
        lexicon.write_text("invoice\tinvoice\tNOUN\n", encoding="utf-8")
        (tmp_path / "en.tsv.rules").write_text("-ing\tVERBISH\t:\n", encoding="utf-8")
        err = self.run_with(["check"], lexicon, tmp_path, capsys)
        assert err == f"error: cannot read lexicon '{lexicon}': {lexicon}.rules:1: unknown UPOS tag 'VERBISH'\n"


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


# Each command line below writes to stdout: a small report, a line after the
# output file is written, a report larger than stdout's 8 KB buffer, so
# that a buffered write fails while the command runs and again at the exit,
# and the help of rslkit and of one command, which argparse would print.
STDOUT_WRITERS = {
    "check": ["check", "--format", "json", str(FIXTURES / "billing_defects.rsl")],
    "gen": ["gen", "json", str(FIXTURES / "billing_clean.rsl"), "-o", "out.json"],
    "large report": ["check", "copies.rsl"],
    "help": ["--help"],
    "check help": ["check", "--help"],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", STDOUT_WRITERS)
def test_a_failed_write_to_stdout_exits_2_with_one_line_on_stderr(command, unbuffered, tmp_path):
    (tmp_path / "copies.rsl").write_text('Actor a "Operator" : User\n' * 200, encoding="utf-8")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if unbuffered:  # each write reaches the file at once, so it fails inside the command
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        out = subprocess.run(
            [sys.executable, "-m", "rslkit.cli", *STDOUT_WRITERS[command]],
            cwd=tmp_path, env=env, stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert out.returncode == 2
    assert out.stderr == f"error: cannot write to standard output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    if command == "gen":
        assert (tmp_path / "out.json").exists()


class FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("stdout", [FullStdout(), None], ids=["full", "closed"])
def test_main_reports_a_failed_write_to_stdout_as_a_usage_error(stdout, capsys):
    with contextlib.redirect_stdout(stdout):
        assert main(["check", str(FIXTURES / "billing_clean.rsl")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write to standard output: ")


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # every example rewrites the same files
)
@given(st.lists(st.sampled_from(RSL_PIECES), max_size=60).map("".join))
def test_every_command_is_total_on_rsl_like_text(tmp_path, capsys, source):
    spec = tmp_path / "spec.rsl"
    spec.write_text(source, encoding="utf-8")
    for argv in (
        ["check", str(spec)],
        ["check", "--format", "json", str(spec)],
        ["gen", "json", str(spec), "-o", str(tmp_path / "out.json")],
        ["fix", "--dry-run", "--create-missing", str(spec)],
    ):
        code, _, err = run(argv, capsys)
        assert code in (0, 1, 2), (argv, source)
        assert "Traceback" not in err
