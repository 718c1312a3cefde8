"""Every node of every document in tests/data, replaced by values of other
types, under every command that reads the document.  handle() answers
each request with an exit code in {0, 1, 2} and a dict or DOT text, never
a traceback; every error it names is an LSpaceError; and a float or a bool
where the document held an integer is MalformedInput."""

import copy
import json
from pathlib import Path

import pytest

from lspace import errors
from lspace.cli import handle

DATA = Path(__file__).parent / "data"
DOCUMENTS = sorted(path.name for path in DATA.glob("*.json"))
VALUES = (0, 1, 2, -1, 3, 1.5, 0.5, 2.0, -0.5, True, False, None, "x", "2", [], {}, [1])
COMMANDS = {
    "manifold": [("interval", {}), ("check", {"slope": "2/1"}), ("dtau", {}),
                 ("oracle", {"nu": "2/1"}), ("cfd", {}), ("gst", {})],
    "sfs": [("sfs", {"fiber": 0})],
    "glue": [("glue", {})],
}


def _kind(doc):
    return "glue" if "phi" in doc else "sfs" if "e0" in doc else "manifold"


def _paths(node, path=()):
    """The path of every node below the root, with the node."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def mutations(name):
    """(label, request, whether a float or a bool replaced an integer) for
    each node of the document, each value of VALUES and each command."""
    doc = json.loads((DATA / name).read_text())
    for path, original in _paths(doc):
        for value in VALUES:
            mutant = _replaced(doc, path, value)
            not_integer = type(original) is int and type(value) in (float, bool)
            for cmd, args in COMMANDS[_kind(doc)]:
                label = "%s %s=%r" % (cmd, ".".join(map(str, path)), value)
                yield label, {"cmd": cmd, "input": mutant, "args": args}, not_integer


def faults(request, not_integer):
    """What is wrong with handle()'s answer to one request, as a list of
    strings; an exception from handle() propagates."""
    code, answer = handle(request)
    found = []
    if code not in (0, 1, 2):
        found.append("exit code %r" % (code,))
    if not isinstance(answer, (dict, str)):
        found.append("answer of type %s" % type(answer).__name__)
    error = answer.get("error") if isinstance(answer, dict) else None
    if error is not None:
        cls = getattr(errors, error, None)
        if not (isinstance(cls, type) and issubclass(cls, errors.LSpaceError)):
            found.append("error %r is no LSpaceError" % (error,))
    if not_integer and error != "MalformedInput":
        found.append("a float or bool for an integer answered %r with exit %d"
                     % (error or answer, code))
    return found


@pytest.mark.parametrize("name", DOCUMENTS)
def test_every_mutation_is_answered(name):
    bad = [(label, fault) for label, request, not_integer in mutations(name)
           for fault in faults(request, not_integer)]
    assert not bad, bad[:5]
