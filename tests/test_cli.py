"""CLI behavior: subcommands, exit codes, deterministic output, atomic writes."""

import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading

import pytest

from w52 import export
from w52 import pentads as pentads_module
from w52.cli import main
from w52.geometry import TaxonomyViolation
from w52.pauli import OBSERVABLES
from w52.taxonomy import TypeCountMismatch, classify_census

# SHA-256 of the reference `enumerate pentads --format json|csv --out` files
EXPORT_SHA256 = {
    "json": "939bef33ecdef0a12c84955c1ea4f4f7a05dd81899ae6fdcf40214dd2fb4022f",
    "csv": "58719f3250e1cc28137cd6a2a9d8661d44e76ac53fd54948c3ca6950a41d29c1",
}

# SHA-256 of the reference `census --out` file
CENSUS_SHA256 = "00f28379865f6354d846e5c1a42ef19e54906fd3a424cbc58dd763e820280779"

# SHA-256 of each command's stdout, or of the file it writes when it ends in --out
OUTPUT_SHA256 = {
    "show --pentad 4321 --as planes":
        "487d4b5d8207e6462250269d6739b97a161278ff97b72ee4f9b74dbe2368b1dd",
    "show --pentad 4321 --as pentagram":
        "9c16ea99ffefebb9a5632596ade2eb0db2e6be67ddf0f3063b36cd2494500d72",
    "show --pentad 4321 --as config":
        "f680722370fe903a7edecdddfef8d1c42a9d430b73281c62c6d7b412d0eaf922",
    "show --pentad 5 --as config --coords":
        "2d24c4983939c10c3cdd01c9daf9e059d47338a9ada0dbfe72f25c4ca8b279dc",
    "table1": "b091c7b2f1483e4dde1177c659c948af97a5ab11ed5140efaeda68e81abcd3fe",
    "laws": "49fe2fb4dd89b3e9e5c83a915719e9f91f38bd5c56e10d6b94fafdab9e975801",
    "enumerate points --format csv --out":
        "90047bdc09aa5b73f668ba714c3cd463e265cbcc18860064e03f5331075762bd",
    "enumerate points --format json --out":
        "37c952c2af1e4e53ca7a1394c79f82db1a89d9c03c8466be623c87cfb5bf9bd9",
    "enumerate lines --format csv --out":
        "8b980b44ac63e591b55f13ee6b4f380e2407d955187a744a222c4569864f2996",
    "enumerate lines --format json --out":
        "91d994ee143bc621ba992b73e8249006ae2e3b0ae9e52eb18dbb1676ef7c9617",
    "enumerate planes --format csv --out":
        "e2b9beb23ec914eefe02b3420106b799870be23e25968f9eab5f702e11439977",
    "enumerate planes --format json --out":
        "1391058969567c13daacdeb91dfc22b8d0c3f83eac3f9b6a0ffa7b6c3cdd01a4",
}

# SHA-256 of `verify FILE --format text|json` stdout, for the canonical
# pentagram and for pentad 4321's configuration
VERIFY_SHA256 = {
    ("pentagram", "text"): "e999091f93cd9c3d1e327cc7da79fc11dad534a50145d46b59475dd70508e31b",
    ("pentagram", "json"): "42b91732064e750141576f0be24762423a3c85b105b430bf96dab7ba2d8e4ddf",
    ("config", "text"): "cc0cf1d4c7710cdef88ddb4bb1ba94b4fafe5901f93740060c1e43ca62210ab5",
    ("config", "json"): "a9dee788d8163d923bc7d9c9c6bce1a5f325cd6d2bd76e2714d5ab8c244877ae",
}

CANONICAL_EDGES = [
    ["XII", "IYI", "IIY", "XYY"],
    ["YII", "IXI", "IIY", "YXY"],
    ["YII", "IYI", "IIX", "YYX"],
    ["XII", "IXI", "IIX", "XXX"],
    ["XYY", "YXY", "YYX", "XXX"],
]


def write_contexts(path, contexts):
    path.write_text(json.dumps({"contexts": contexts}), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", list(OUTPUT_SHA256))
def test_output_matches_reference_bytes(capsys, tmp_path, command):
    argv = command.split()
    if argv[-1] == "--out":
        out = tmp_path / "out"
        assert main(argv + [str(out)]) == 0
        data = out.read_bytes()
    else:
        assert main(argv) == 0
        data = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == OUTPUT_SHA256[command]


class TestEnumerate:
    def test_points_prints_63(self, capsys):
        assert main(["enumerate", "points"]) == 0
        assert capsys.readouterr().out == "63\n"

    def test_lines_prints_315(self, capsys):
        assert main(["enumerate", "lines"]) == 0
        assert capsys.readouterr().out == "315\n"

    def test_planes_csv_export(self, capsys, tmp_path):
        out = tmp_path / "planes.csv"
        assert main(["enumerate", "planes", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "135\n"
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,points,sign,class,b_line"
        assert len(lines) == 136

    def test_points_json_with_coords(self, capsys, tmp_path):
        out = tmp_path / "points.json"
        assert main(["enumerate", "points", "--format", "json", "--coords",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert len(rows) == 63
        assert rows[29] == {"id": 30, "word": "XYZ", "type": "C", "coords": "011110"}

    def test_pentads_prints_12096(self, capsys):
        assert main(["enumerate", "pentads"]) == 0
        assert capsys.readouterr().out == "12096\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_pentads_export_matches_reference_bytes(self, capsys, tmp_path, fmt):
        out = tmp_path / f"pentads.{fmt}"
        assert main(["enumerate", "pentads", "--format", fmt, "--out", str(out)]) == 0
        assert capsys.readouterr().out == "12096\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_SHA256[fmt]
        assert list(tmp_path.iterdir()) == [out]

    def test_unknown_object_is_usage_error(self, capsys):
        assert main(["enumerate", "hexagons"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "points", "--frmt", "json"],
            ["census", "--cache", "x"],
            ["census", "--threads", "2"],
        ],
        ids=["misspelt", "cache", "threads"],
    )
    def test_unknown_flag_is_usage_error(self, capsys, argv):
        assert main(argv) == 2


class TestVerify:
    def test_canonical_pentagram_passes(self, capsys, tmp_path):
        f = write_contexts(tmp_path / "pentagram.json", CANONICAL_EDGES)
        assert main(["verify", str(f)]) == 0
        out = capsys.readouterr().out
        assert "verdict: ValidParityProof" in out
        assert "symbol: 10_2 − 5_4" in out

    def test_json_report(self, capsys, tmp_path):
        f = write_contexts(tmp_path / "pentagram.json", CANONICAL_EDGES)
        assert main(["verify", str(f), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "ValidParityProof"
        assert obj["negative_count"] == 1
        assert obj["symbol"] == "10_2 − 5_4"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", ["pentagram", "config"])
    def test_output_matches_reference_bytes(self, capsys, tmp_path, space, pentads, name, fmt):
        if name == "pentagram":
            rows = CANONICAL_EDGES
        else:
            config = pentads_module.pentad_to_config(space, pentads[4321])
            rows = [[OBSERVABLES[p - 1].word for p in ctx] for ctx in config.contexts]
        f = write_contexts(tmp_path / f"{name}.json", rows)
        assert main(["verify", str(f), "--format", fmt]) == 0
        data = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == VERIFY_SHA256[name, fmt]

    def test_single_context_fails_as_not_contextual(self, capsys, tmp_path):
        f = write_contexts(tmp_path / "line.json", [["XII", "IXI", "XXI"]])
        assert main(["verify", str(f)]) == 1
        assert "NotContextual" in capsys.readouterr().out

    def test_malformed_word_is_a_parse_error(self, capsys, tmp_path):
        f = write_contexts(tmp_path / "bad.json", [["QXI", "IXI", "XXI"]])
        assert main(["verify", str(f)]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_string_word_is_a_parse_error(self, capsys, tmp_path):
        f = write_contexts(tmp_path / "bad.json", [["XXI", 3, "ZZI"]])
        assert main(["verify", str(f)]) == 2
        assert "Pauli word must be a string, got int 3" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == 2

    def test_deeply_nested_file_is_a_parse_error(self, capsys, tmp_path):
        f = tmp_path / "deep.json"
        f.write_text("[" * 200000, encoding="utf-8")
        assert main(["verify", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {f} is not valid JSON")
        assert "Traceback" not in err

    def test_non_utf8_file_is_a_parse_error(self, capsys, tmp_path):
        f = tmp_path / "latin.json"
        f.write_bytes(b"\xff\xfe{")
        assert main(["verify", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {f} is not valid UTF-8")
        assert "Traceback" not in err

    def test_non_commuting_context_diagnosed(self, capsys, tmp_path):
        f = write_contexts(tmp_path / "anti.json", [["XII", "YII", "ZII"]])
        assert main(["verify", str(f)]) == 1
        out = capsys.readouterr().out
        assert "MalformedContext" in out
        assert "anticommuting" in out

    def test_non_closed_context_diagnosed(self, capsys, tmp_path):
        f = write_contexts(tmp_path / "open.json", [["XII", "IXI", "IIX"]])
        assert main(["verify", str(f)]) == 1
        out = capsys.readouterr().out
        assert "MalformedContext" in out
        assert "not closed" in out


class TestCensusPipeline:
    def test_census_csv_matches_library(self, capsys, tmp_path, census):
        out = tmp_path / "census.csv"
        assert main(["census", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == export.census_csv(census)

    def test_census_csv_matches_reference_bytes(self, capsys, tmp_path):
        out = tmp_path / "census.csv"
        assert main(["census", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CENSUS_SHA256

    def test_census_header(self, capsys):
        assert main(["census"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "type,count,C-,O_A,O_B,O_C,F-,Fa,Fb,Fc,P_C-,P_OA,P_OB,P_OC,A_on_neg,example_pentad"

    def test_table1_matches(self, capsys):
        assert main(["table1"]) == 0
        assert "matches all 47" in capsys.readouterr().out

    def test_laws_hold(self, capsys):
        assert main(["laws"]) == 0
        out = capsys.readouterr().out
        assert out.count("satisfied") == 5
        assert "VIOLATED" not in out

    def test_structural_violation_is_an_error_not_a_traceback(self, capsys, monkeypatch):
        def violate(space, pentads):
            raise TaxonomyViolation("pentad 0 yields repeated contexts")

        monkeypatch.setattr("w52.cli.classify_census", violate)
        assert main(["census"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pentad 0 yields repeated contexts\n"

    @pytest.mark.parametrize("command", ["census", "table1", "laws"])
    def test_type_count_mismatch_is_an_error(self, space, pentads, capsys, monkeypatch, command):
        with pytest.raises(TypeCountMismatch) as err:
            classify_census(space, pentads[:50])
        partial = err.value.census

        def mismatch(space, pentads):
            raise TypeCountMismatch(partial)

        monkeypatch.setattr("w52.cli.classify_census", mismatch)
        assert main([command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"classification produced {len(partial.records)} types")
        witnesses = captured.err.splitlines()[1:]
        assert len(witnesses) == len(partial.records)
        assert all(line.startswith("  witness pentad ") for line in witnesses)
        assert witnesses[0] == (
            "  witness pentad 15: ConfigSignature(negative_contexts=9, obs_a=5, obs_b=10, "
            "obs_c=10, neg_planes=2, planes_a=1, planes_b=0, planes_c=2, "
            "pentagram=PentagramSignature(negative_edges=3, obs_a=2, obs_b=5, obs_c=3, "
            "a_on_negative=1))"
        )

    def test_search_short_of_a_pentad_fails_table1(self, pentads, capsys, monkeypatch):
        monkeypatch.setattr("w52.cli._search", lambda space: iter(pentads[1:]))
        assert main(["table1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: census holds 12095 pentads, expected 12096\n"

    def test_rejected_search_candidate_is_an_error(self, space, pentads, capsys, monkeypatch):
        victim = pentads[4321].planes
        reject_planes(monkeypatch, victim)
        with pytest.raises(TaxonomyViolation, match=f"planes {re.escape(str(victim))}"):
            pentads_module.enumerate_pentads(space)
        assert main(["census"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pentad search proposed planes")

    def test_search_yields_before_a_later_rejection(self, space, pentads, monkeypatch):
        # the search is a stream: pentad 0 comes out before the last is checked
        reject_planes(monkeypatch, pentads[-1].planes)
        stream = pentads_module._search(space)
        first = next(stream)
        assert first == pentads[0]
        assert first.pentad_id == 0
        with pytest.raises(TaxonomyViolation, match="not a new pentad"):
            for _ in stream:
                pass


def reject_planes(monkeypatch, victim):
    """Make the one pentad check reject the 5-set ``victim`` alone."""
    build = pentads_module._build_pentad

    def reject_one(space, plane_ids, pentad_id=None):
        return None if tuple(plane_ids) == victim else build(space, plane_ids, pentad_id)

    monkeypatch.setattr(pentads_module, "_build_pentad", reject_one)


class TestAtomicOut:
    def test_failed_write_keeps_existing_file(self, tmp_path):
        out = tmp_path / "table.csv"
        out.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with export.atomic_open(out) as f:
                f.write("partial")
                raise RuntimeError("write failed")
        assert out.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.iterdir()) == [out]
        with export.atomic_open(out) as f:
            f.write("new\n")
        assert out.read_text(encoding="utf-8") == "new\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_replaced_file_keeps_its_permissions(self, tmp_path):
        # the temporary file is made under the umask: a file it replaces keeps
        # its own mode, and a new file gets the umask's default
        kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
        kept.write_text("old\n", encoding="utf-8")
        kept.chmod(0o600)
        umask = os.umask(0o022)
        try:
            for out in (kept, new):
                assert main(["enumerate", "points", "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(kept.stat().st_mode) == 0o600
        assert stat.S_IMODE(new.stat().st_mode) == 0o644
        assert kept.read_bytes() == new.read_bytes() != b"old\n"

    def test_missing_directory_is_usage_error_naming_target(self, capsys, tmp_path):
        out = tmp_path / "missing" / "planes.csv"
        assert main(["enumerate", "planes", "--out", str(out)]) == 2
        assert f"No such file or directory: '{out}'" in capsys.readouterr().err

    def test_directory_target_is_usage_error_naming_target(self, capsys, tmp_path):
        out = tmp_path / "planes.csv"
        out.mkdir()
        assert main(["enumerate", "planes", "--out", str(out)]) == 2
        assert f"Is a directory: '{out}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [out]

    def test_failed_json_stream_keeps_existing_file(self, monkeypatch, tmp_path, space, pentads):
        out = tmp_path / "pentads.json"
        out.write_text("old\n", encoding="utf-8")
        two = io.StringIO()
        export.dump_pentads(two, space, pentads[:2])
        derive = export._derive
        seen, written = [], []

        def fail_on_third(space, pentad, memo):
            seen.append(pentad)
            if len(seen) == 3:
                written.append(f.tell())
                raise TaxonomyViolation("derivation failed")
            return derive(space, pentad, memo)

        # the stream writes the first two records, then fails deriving the third
        monkeypatch.setattr(export, "_derive", fail_on_third)
        with pytest.raises(TaxonomyViolation):
            with export.atomic_open(out) as f:
                export.dump_pentads(f, space, pentads[:5])
        assert written == [len(two.getvalue()) - len("\n  ]\n}\n")]
        assert out.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.iterdir()) == [out]


    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rejection_late_in_the_stream_keeps_existing_file(
        self, capsys, monkeypatch, tmp_path, pentads, fmt
    ):
        out = tmp_path / f"pentads.{fmt}"
        out.write_text("old\n", encoding="utf-8")
        reject_planes(monkeypatch, pentads[-1].planes)
        assert main(["enumerate", "pentads", "--format", fmt, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pentad search proposed planes")
        assert out.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_fifo_target_is_written_in_place(self, tmp_path):
        out = tmp_path / "census.fifo"
        os.mkfifo(out)
        received = []
        reader = threading.Thread(target=lambda: received.append(out.read_bytes()), daemon=True)
        reader.start()
        assert main(["census", "--out", str(out)]) == 0
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert hashlib.sha256(received[0]).hexdigest() == CENSUS_SHA256
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
        assert list(tmp_path.iterdir()) == [out]

    def test_symlink_target_is_replaced_through_the_link(self, tmp_path):
        real = tmp_path / "real"
        real.mkdir()
        target = real / "census.csv"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["census", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert hashlib.sha256(target.read_bytes()).hexdigest() == CENSUS_SHA256
        assert sorted(tmp_path.iterdir()) == [link, real]
        assert list(real.iterdir()) == [target]

    @pytest.mark.parametrize(
        "command",
        ["enumerate points", "enumerate lines", "enumerate planes", "enumerate pentads", "census"],
    )
    def test_empty_path_is_usage_error(self, capsys, command):
        assert main(command.split() + ["--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --out: the path must not be empty" in captured.err


class TestShow:
    def test_show_config_lists_25_observables_30_contexts(self, capsys):
        assert main(["show", "--pentad", "0", "--as", "config"]) == 0
        out = capsys.readouterr().out
        assert "observables (25)" in out
        assert "contexts (30)" in out
        assert out.count("sign") == 30

    def test_show_pentagram(self, capsys):
        assert main(["show", "--pentad", "0", "--as", "pentagram"]) == 0
        out = capsys.readouterr().out
        assert out.count("edge ") == 5

    def test_show_planes_with_coords(self, capsys):
        assert main(["show", "--pentad", "12095", "--as", "planes", "--coords"]) == 0
        assert "(" in capsys.readouterr().out

    def test_unknown_pentad_id(self, capsys, monkeypatch):
        # an id outside the census is rejected before the space or the search
        def refuse(*args):
            pytest.fail("an unknown id built the space or ran the search")

        monkeypatch.setattr("w52.cli.Space", refuse)
        monkeypatch.setattr("w52.cli._search", refuse)
        ids = ("12096", "-1", "9223372036854775807", "9223372036854775808", "99999999999999999999")
        for pentad_id in ids:
            assert main(["show", "--pentad", pentad_id, "--as", "config"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: unknown pentad id {pentad_id}\n"

    def test_search_short_of_the_id_is_an_error(self, pentads, capsys, monkeypatch):
        monkeypatch.setattr("w52.cli._search", lambda space: iter(pentads[:10]))
        assert main(["show", "--pentad", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the pentad search ended before pentad 10\n"


class TestClosedStdout:
    SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize(
        "argv",
        [["show", "--pentad", "3", "--as", "config"], ["census"], ["enumerate", "points"]],
    )
    def test_a_closed_pipe_ends_the_command_silently(self, argv, buffered):
        # A buffered stdout first writes at the flush, an unbuffered one at
        # once; either way the reader is gone, which is no usage error, and
        # the interpreter's own flush at exit must not complain either.
        env = {**os.environ, "PYTHONPATH": self.SRC}
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "w52.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_device_is_still_an_error(self, capsys):
        assert main(["census", "--out", "/dev/full"]) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
