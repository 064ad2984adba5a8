"""Command-line front end.

Every subcommand assembles an output envelope

    {"command": ..., "inputs": ..., "results": ..., "format_version": ...}

printed as human-readable lines by default, as canonical JSON (two-space
indent, sorted keys) under ``--json``, and written atomically to a file with
``--out``.  Exit codes: 0 success, 2 bad usage or validation error (a closed
stdout included), 3 work budget exceeded or out of memory, 4 internal
invariant violation found by the enumeration oracle.

A process compiles and builds only what its request runs.  ``main`` reads
every command line off the option table ``_COMMANDS`` (see
``_parse_by_table``).  Help and usage errors, the only lines that are not a
request, are rendered from the same table by :mod:`satgenus.usage`, which
only they load, through ``build_parser``; no module imports argparse.
``main`` then imports the command group's handler module:
:mod:`satgenus.cmd_braid`, :mod:`satgenus.cmd_bounds` (``bounds`` and
``examples``), :mod:`satgenus.cmd_cover` or :mod:`satgenus.cmd_perm`.  A
handler imports the library layers it calls when it runs and returns its exit
code and envelope parts, which ``main`` prints; a refused request raises
ValueError or ``BudgetExceededError``, which ``main`` prints as one ``error:``
line.  So reading the command line loads no layer, only ``cover enumerate``
loads the oracle, and no request loads ``json``: ``--json`` and ``--out``
render the envelope with ``_json_text`` and load only the C module
``_json``.  Neither the handler modules nor :mod:`satgenus.usage` import
this module: run as ``python -m satgenus.cli`` it is ``__main__``, and
importing it again would compile it a second time.

``main`` returns the exit code, for help and usage errors too, and is what
in-process callers use.  The process entry point ``run`` calls it, flushes
stdout and stderr and ends the process with ``os._exit``: once the last
byte is written nothing is left to do, and tearing the interpreter down
(module teardown, the final collection, freeing every object) would add
7-15 ms to each request on a 2-CPU machine.  ``--out`` closes its file
before the rename, so nothing is lost.
"""

from __future__ import annotations

import errno
import os
import stat
import sys
from types import SimpleNamespace

# the exit codes live in the package, where the handler modules read them
from . import EXIT_BUDGET, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, BudgetExceededError

FORMAT_VERSION = "0.1.0"


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file and one rename.

    A symlink is followed, so the file it points to is replaced and the link
    kept.  An existing target that is not a regular file (a directory, a
    FIFO, a device) is refused before anything is written.  A replaced file
    keeps its mode; a new one gets the umask default.
    """
    import tempfile  # only --out needs it, and it imports shutil and random

    if not path:
        raise FileNotFoundError(errno.ENOENT, "empty path")
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(mode):
            raise OSError(errno.EEXIST, "exists and is not a regular file")
        mode = stat.S_IMODE(mode)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".satgenus-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), mode)
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for what
    an envelope holds: dicts with str keys, lists, tuples, str, int, bool and
    None.  Anything else raises TypeError.

    With an indent ``json.dumps`` runs its pure-Python encoder, and importing
    the ``json`` package, with its decoder, scanner and their regexes, costs
    a short request more than the encoding does.  Every piece of the text
    goes into one flat list, joined once at the end, so the text exists in
    one copy.  Strings are quoted by the C function that encoder uses, once
    per distinct string, and a list's string item after the first is one
    piece with the separator before it, made once per distinct item, so
    each entry of a deep witness adds one reference to the list.
    """
    from _json import encode_basestring_ascii  # a local import: human output loads nothing

    quoted: dict[str, str] = {}
    # a list's separator and a quoted string in one piece
    separated: dict[tuple[str, str], str] = {}
    pieces: list[str] = []
    put = pieces.append

    def write(value, indent: str) -> None:
        if isinstance(value, str):
            if value not in quoted:
                quoted[value] = encode_basestring_ascii(value)
            put(quoted[value])
        elif value is None:
            put("null")
        elif value is True:
            put("true")
        elif value is False:
            put("false")
        elif isinstance(value, int):
            put(int.__repr__(value))
        elif isinstance(value, dict):
            if not all(isinstance(key, str) for key in value):
                raise TypeError("keys must be str")
            if not value:
                put("{}")
                return
            inner = indent + "  "
            separator = "{\n" + inner
            for key in sorted(value):
                put(separator)
                write(key, inner)
                put(": ")
                write(value[key], inner)
                separator = ",\n" + inner
            put("\n" + indent + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                put("[]")
                return
            inner = indent + "  "
            put("[\n" + inner)
            items = iter(value)
            write(next(items), inner)
            separator = ",\n" + inner
            for item in items:
                if isinstance(item, str):
                    key = (separator, item)
                    if key not in separated:
                        write(item, inner)
                        separated[key] = separator + pieces.pop()
                    put(separated[key])
                else:
                    put(separator)
                    write(item, inner)
            put("\n" + indent + "]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(value, "")
    return "".join(pieces)


def _emit(args, command: str, inputs: dict, results: dict, human: list[str]) -> None:
    if args.json or args.out is not None:
        envelope = {
            "command": command,
            "format_version": FORMAT_VERSION,
            "inputs": inputs,
            "results": results,
        }
        text = _json_text(envelope)
    if args.out is not None:
        try:
            _write_atomic(args.out, text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    if args.json:
        print(text)
    else:
        for line in human:
            print(line)


# command: (help, handler module, leaves); a leaf is (subcommand or None for
# a command without subcommands, help, options), and an option is (flag,
# kind, required, help), its kind int or str for a value read by that type,
# a tuple of the values allowed, or bool for a flag that takes no value.
# Every leaf also takes _OUTPUT_OPTIONS, and its handler is the function of
# the handler module named after its path, such as cmd_cover.cover_from_hom.
_COMMANDS = {
    "braid": ("braid word constructions and invariants", "cmd_braid", [
        ("analyze", "invariants of a given word", [
            ("--word", str, True, "letters like '1 -2 1' or '1^3 2^-2'"),
            ("--strands", int, True, None),
        ]),
        ("halftwist", "the positive half twist", [
            ("--strands", int, True, None),
        ]),
        ("orevkov", "the quasipositive gap families", [
            ("--family", ("k1", "k2"), True, None),
            ("--n", int, True, "family parameter (k1 has n strands, k2 has 2n)"),
            ("--twists", int, False, "negative kink count for k2 (default: suggested odd value)"),
        ]),
    ]),
    "bounds": ("evaluate the satellite genus bounds", "cmd_bounds", [
        (None, None, [
            ("--g4k", int, True, "4-genus of the companion"),
            ("--winding", int, True, None),
            ("--pattern-genus", int, False, "pattern genus for the refined Seifert bound"),
            ("--csv", bool, False, "print the table as CSV"),
        ]),
    ]),
    "examples": ("worked end-to-end examples", "cmd_bounds", [
        ("orevkov", "the cabled family versus the satellite bound", [
            ("--n", int, True, None),
            ("--twists", int, False, "odd kink count (default: suggested value near 8n^2/3)"),
        ]),
    ]),
    "cover": ("covering-surface bookkeeping", "cmd_cover", [
        ("cyclic", "the connected cyclic unramified cover", [
            ("--genus", int, True, "genus of the one-holed base"),
            ("--degree", int, True, None),
        ]),
        ("from-hom", "cover shape from monodromy images", [
            ("--genus", int, True, None),
            ("--degree", int, True, None),
            ("--images", str, True,
             "semicolon-separated cycle notations, 2*genus of them, e.g. '(1 2 3);()'"),
        ]),
        ("enumerate", "exhaustive scan of all monodromy tuples", [
            ("--genus", int, True, None),
            ("--degree", int, True, None),
            ("--budget", int, False, "work budget (default 10^9, at most 10^100)"),
            ("--sharpness", bool, False, "also run the equality analysis"),
        ]),
    ]),
    "perm": ("permutation commutator tools", "cmd_perm", [
        ("commutator", "commutator of two permutations", [
            ("--a", str, True, "cycle notation, e.g. '(2 3)(4 5)'"),
            ("--b", str, True, None),
            ("--degree", int, True, None),
        ]),
        ("examples", "the transitive involution pairs", [
            ("--type", ("odd", "even"), True,
             "odd: full cycle on 2m+1 points; even: two m-cycles on 2m points"),
            ("--m", int, True, None),
        ]),
        ("ore", "write an even permutation as a commutator", [
            ("--target", str, True, "cycle notation"),
            ("--degree", int, True, None),
        ]),
    ]),
}

_OUTPUT_OPTIONS = [
    ("--json", bool, False, "print the JSON envelope"),
    ("--out", str, False, "also write the JSON envelope to FILE"),
]


_HELP = ("-h", "--help")


def _takes(word: str) -> bool:
    """Whether a flag takes word as its value.  argparse's rule, less its
    reading of a word that starts with ``--``: a word that starts with ``-``
    is a value when it is ``-`` alone, a negative number or holds a space,
    and does not start with ``-h``."""
    if not word.startswith("-") or word == "-":
        return True
    if word.startswith(("--", "-h")):
        return False
    whole, dot, fraction = word[1:].partition(".")
    number = fraction.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return number or " " in word


def _parse_by_table(argv: list[str]):
    """Read argv off ``_COMMANDS``: the handler's namespace, with the
    attributes argparse would set, for a request; otherwise ``(path,
    error)``, the words that name the level answering (the command and
    subcommand, as far as argv names them) and the usage error, None for
    ``-h`` or ``--help``.

    A request is the command and subcommand, then options by their exact
    full flags, each at most once, a value given as ``--flag value`` (see
    ``_takes``) or as ``--flag=value``, a bool flag alone; every required
    option present, every int value read by ``int`` and every choice
    allowed.  The words are read in order and the first that breaks this
    form is the error, or the help request.
    """
    words = iter(argv)
    path, names, what = [], list(_COMMANDS), "command"
    while names:
        word = next(words, None)
        if word in _HELP:
            return path, None
        if word is None or word.startswith("-"):
            return path, f"the following arguments are required: {what}"
        if word not in names:
            choices = ", ".join(map(repr, names))
            return path, f"argument {what}: invalid choice: {word!r} (choose from {choices})"
        path.append(word)
        names = [] if len(path) == 2 else [sub for sub, _, _ in _COMMANDS[word][2] if sub]
        what = "subcommand"
    command, name = path[0], path[1] if len(path) == 2 else None
    module, leaves = _COMMANDS[command][1:]
    options = next(opts for sub, _, opts in leaves if sub == name) + _OUTPUT_OPTIONS
    kinds = {flag: kind for flag, kind, _, _ in options}
    values: dict[str, object] = {}
    for word in words:
        if word in _HELP:
            return path, None
        flag, equals, value = word.partition("=")
        kind = kinds.get(flag)
        if kind is None:
            return path, f"unrecognized arguments: {word}"
        if flag in values:
            return path, f"argument {flag}: given more than once"
        if kind is bool:
            if equals:
                return path, f"argument {flag}: ignored explicit argument {value!r}"
            value = True
        elif not equals:
            value = next(words, None)
            if value is None or not _takes(value):
                return path, f"argument {flag}: expected one argument"
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return path, f"argument {flag}: invalid int value: {value!r}"
        elif isinstance(kind, tuple) and value not in kind:
            choices = ", ".join(map(repr, kind))
            return path, f"argument {flag}: invalid choice: {value!r} (choose from {choices})"
        values[flag] = value
    missing = [flag for flag, _, required, _ in options if required and flag not in values]
    if missing:
        return path, f"the following arguments are required: {', '.join(missing)}"
    namespace = {"command": command}
    if name is not None:
        namespace["subcommand"] = name
    for flag, kind, _, _ in options:
        namespace[flag[2:].replace("-", "_")] = values.get(flag, False if kind is bool else None)
    handler = command if name is None else f"{command}_{name}"
    namespace["run"] = (module, handler.replace("-", "_"))
    return SimpleNamespace(**namespace)


def build_parser():
    """The help and usage errors of ``_COMMANDS``, a
    :class:`satgenus.usage.Parser`; ``main`` builds it only when
    ``_parse_by_table`` reads no request, so only help and usage errors load
    :mod:`satgenus.usage`."""
    from .usage import Parser

    return Parser(_COMMANDS, _OUTPUT_OPTIONS)


def _print_error(message: str) -> None:
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass  # a closed stderr leaves the exit code as it is


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_by_table(argv)
    if isinstance(args, tuple):  # help or a usage error
        return build_parser().answer(*args)
    module, name = args.run
    # the import statement's machinery, unlike importlib.import_module, is
    # what -X importtime reports
    handler = getattr(__import__(f"satgenus.{module}", fromlist=[name]), name)
    # argv was read under the interpreter's limit on int digits; lift it
    # while the request runs and prints, so every number prints in full (the
    # budget bounds an enumeration's counts; 3.10 before 3.10.7 has no limit)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        code, report = handler(args)
        _emit(args, *report)
    except ValueError as exc:
        _print_error(str(exc))
        return EXIT_USAGE
    except BudgetExceededError as exc:
        _print_error(str(exc))
        return EXIT_BUDGET
    except MemoryError:
        pass  # report below, once the traceback and the frames it holds are freed
    else:
        return code
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
    _print_error("out of memory: the request needs more than this process can allocate")
    return EXIT_BUDGET


def run() -> None:
    """Run ``main`` on the command line and end the process with its exit
    code, skipping interpreter finalization; it does not return.

    A stdout whose reader has gone (a closed pipe) is reported as one
    ``error: cannot write stdout`` line on stderr and exit 2, after help
    too; a closed stderr leaves the exit code as it is.  Uncaught exceptions
    leave as they would from ``main``.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the unwritten bytes stay buffered: point fd 1 at devnull so that
        # no later flush retries them
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        _print_error(f"cannot write stdout: {exc.strerror}")
        code = EXIT_USAGE
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
