"""tools/digests.py records a digest that raises and compares the rest."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "digests.py"
_spec = importlib.util.spec_from_file_location("digests", _PATH)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def _raises():
    raise ValueError("array is too big")


def test_a_raising_digest_is_recorded_and_the_run_goes_on(capsys):
    def fine():
        yield "a/one", lambda: digests._sha(1)
        yield "a/two", _raises
        yield "a/three", lambda: digests._sha(3)

    def broken():
        yield "b/one", lambda: digests._sha(1)
        _raises()
        yield "b/two", lambda: digests._sha(2)

    digests.emit((fine, broken, fine))
    lines = [line.split("  ", 1)[::-1] for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in lines] == ["a/one", "a/two", "a/three", "b/one", "broken",
                                           "a/one", "a/two", "a/three"]
    assert dict(lines)["a/two"] == dict(lines)["broken"] == "error:ValueError"
    assert dict(lines)["a/three"] == digests._sha(3)


def test_compare_lists_errors_apart_from_differences(capsys):
    here = {"a/same": "1", "a/new": "2", "a/old_raises": "3", "a/both": "error:KeyError"}
    there = {"a/same": "1", "a/new": "9", "a/old_raises": "error:ValueError",
             "a/both": "error:KeyError"}
    assert digests.compare(here, there, "REV") == 1
    out = capsys.readouterr().out
    assert "2 digests compared against REV: 1 differ" in out
    assert "differs: a/new" in out
    assert "errored: a/old_raises (this tree: ok, REV: ValueError)" in out
    assert "errored: a/both (this tree: KeyError, REV: KeyError)" in out
    del here["a/new"], here["a/both"], there["a/new"], there["a/both"]
    assert digests.compare(here, there, "REV") == 0  # only the old tree errors


def test_compare_fails_on_an_error_only_this_tree_has(capsys):
    there = {"a/one": "1", "a/two": "2"}
    # the group's set-up raises here: its name errors and its digests go missing
    assert digests.compare({"a_digests": "error:ValueError"}, there, "REV") == 1
    assert digests.compare({"a/one": "1", "a/two": "2", "a/new": "error:KeyError"},
                           there, "REV") == 1  # a new digest that raises
    assert digests.compare({"a/one": "1"}, there, "REV") == 1  # a/two is lost
    assert digests.compare({"a/one": "1", "a/two": "2", "a/new": "3"}, there, "REV") == 0
    out = capsys.readouterr().out
    assert "only in this tree: a_digests" in out and "only in REV: a/two" in out
