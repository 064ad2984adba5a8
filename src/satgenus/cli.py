"""Command-line front end.

Every subcommand assembles an output envelope

    {"command": ..., "inputs": ..., "results": ..., "format_version": ...}

printed as human-readable lines by default, as canonical JSON (two-space
indent, sorted keys) under ``--json``, and written atomically to a file with
``--out``.  Exit codes: 0 success, 2 bad usage or validation error (a closed
stdout included), 3 budget or degree ceiling exceeded or out of memory, 4
internal invariant violation found by the enumeration oracle.

A process compiles and builds only what its request runs.  ``main`` builds
the argparse arguments of the one subcommand its command line names (see
``build_parser``) and then imports that command group's handler module:
:mod:`satgenus.cmd_braid`, :mod:`satgenus.cmd_bounds` (``bounds`` and
``examples``), :mod:`satgenus.cmd_cover` or :mod:`satgenus.cmd_perm`.  A
handler imports the library layers it calls when it runs and returns its exit
code and envelope parts, which ``main`` prints; a refused request raises
ValueError or ``BudgetExceededError``, which ``main`` prints as one ``error:``
line.  So building the parser loads no layer, only ``cover enumerate`` loads
the oracle, and no request loads ``json``: ``--json`` and ``--out`` render
the envelope with ``_json_text`` and load only the C module ``_json``.  The
handler modules never import this module: run as ``python -m satgenus.cli``
it is ``__main__``, and importing it again would compile it a second time.

``main`` returns the exit code and is what in-process callers use; argparse's
help and usage errors still leave it through ``SystemExit``.  The process
entry point ``run`` calls it, flushes stdout and stderr and ends the process
with ``os._exit``, after argparse's exits too: once the last byte is written
nothing is left to do, and tearing the interpreter down (module teardown, the
final collection, freeing every object) would add 7-15 ms to each request on
a 2-CPU machine.  ``--out`` closes its file before the rename, so nothing is
lost.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys

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
    a short request more than the encoding does.  Strings are quoted by the
    C function that encoder uses, once per distinct string, so the entries
    of a deep witness share one quoted text.
    """
    from _json import encode_basestring_ascii  # a local import: human output loads nothing

    quoted: dict[str, str] = {}

    def text(value, indent: str) -> str:
        if isinstance(value, str):
            if value not in quoted:
                quoted[value] = encode_basestring_ascii(value)
            return quoted[value]
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        inner = indent + "  "
        if isinstance(value, dict):
            if not all(isinstance(key, str) for key in value):
                raise TypeError("keys must be str")
            items = [f"{text(key, inner)}: {text(value[key], inner)}" for key in sorted(value)]
            brackets = "{}"
        elif isinstance(value, (list, tuple)):
            items = [text(item, inner) for item in value]
            brackets = "[]"
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if not items:
            return brackets
        return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"

    return text(value, "")


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


def _braid_analyze(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", required=True, help="letters like '1 -2 1' or '1^3 2^-2'")
    p.add_argument("--strands", type=int, required=True)


def _braid_halftwist(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strands", type=int, required=True)


def _braid_orevkov(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["k1", "k2"], required=True)
    p.add_argument("--n", type=int, required=True, help="family parameter (k1 has n strands, k2 has 2n)")
    p.add_argument("--twists", type=int, help="negative kink count for k2 (default: suggested odd value)")


def _bounds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g4k", type=int, required=True, help="4-genus of the companion")
    p.add_argument("--winding", type=int, required=True)
    p.add_argument("--pattern-genus", type=int, help="pattern genus for the refined Seifert bound")
    p.add_argument("--csv", action="store_true", help="print the table as CSV")


def _examples_orevkov(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--twists", type=int, help="odd kink count (default: suggested value near 8n^2/3)")


def _cover_cyclic(p: argparse.ArgumentParser) -> None:
    p.add_argument("--genus", type=int, required=True, help="genus of the one-holed base")
    p.add_argument("--degree", type=int, required=True)


def _cover_from_hom(p: argparse.ArgumentParser) -> None:
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--images", required=True,
        help="semicolon-separated cycle notations, 2*genus of them, e.g. '(1 2 3);()'",
    )


def _cover_enumerate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--budget", type=int, help="work budget (default 10^9)")
    p.add_argument("--sharpness", action="store_true", help="also run the equality analysis")


def _perm_commutator(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", required=True, help="cycle notation, e.g. '(2 3)(4 5)'")
    p.add_argument("--b", required=True)
    p.add_argument("--degree", type=int, required=True)


def _perm_examples(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", choices=["odd", "even"], required=True,
                   help="odd: full cycle on 2m+1 points; even: two m-cycles on 2m points")
    p.add_argument("--m", type=int, required=True)


def _perm_ore(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", required=True, help="cycle notation")
    p.add_argument("--degree", type=int, required=True)


# command: (help, handler module, leaves); a leaf is (subcommand or None for
# a command without subcommands, help, the function adding its arguments).
# Each leaf also gets --json and --out, and its handler is the function of
# the handler module named after its path, such as cmd_cover.cover_from_hom.
_COMMANDS = {
    "braid": ("braid word constructions and invariants", "cmd_braid", [
        ("analyze", "invariants of a given word", _braid_analyze),
        ("halftwist", "the positive half twist", _braid_halftwist),
        ("orevkov", "the quasipositive gap families", _braid_orevkov),
    ]),
    "bounds": ("evaluate the satellite genus bounds", "cmd_bounds", [
        (None, None, _bounds),
    ]),
    "examples": ("worked end-to-end examples", "cmd_bounds", [
        ("orevkov", "the cabled family versus the satellite bound", _examples_orevkov),
    ]),
    "cover": ("covering-surface bookkeeping", "cmd_cover", [
        ("cyclic", "the connected cyclic unramified cover", _cover_cyclic),
        ("from-hom", "cover shape from monodromy images", _cover_from_hom),
        ("enumerate", "exhaustive scan of all monodromy tuples", _cover_enumerate),
    ]),
    "perm": ("permutation commutator tools", "cmd_perm", [
        ("commutator", "commutator of two permutations", _perm_commutator),
        ("examples", "the transitive involution pairs", _perm_examples),
        ("ore", "write an even permutation as a commutator", _perm_ore),
    ]),
}


def _leaf_of(argv: list[str]) -> tuple[str, str | None] | None:
    """The (command, subcommand) that argv names in its first words, the
    subcommand None for a command without them; None for anything else."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    names = [name for name, _, _ in _COMMANDS[argv[0]][2]]
    if names == [None]:
        return argv[0], None
    if len(argv) > 1 and argv[1] in names:
        return argv[0], argv[1]
    return None


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse ignores a failed write; help written to a closed stdout
        # must fail like every other write there
        if file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The satgenus parser: the full tree, or, when ``argv`` names a command
    and its subcommand, one that builds arguments for that leaf only.

    argparse parses a command line the same way with either; the pruned one
    still registers every command, whose names its "unrecognized arguments"
    usage line lists.  Anything else, such as no command, ``-h`` first, an
    unknown command or a missing or unknown subcommand, gets the full tree,
    whose help and errors list every choice.
    """
    leaf = None if argv is None else _leaf_of(argv)
    parser = _Parser(
        prog="satgenus",
        description="Genus bounds for braided satellite links and their covering-surface arithmetic.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, module, leaves) in _COMMANDS.items():
        command_parser = top.add_parser(command, help=command_help)
        if leaf is not None and leaf[0] != command:
            continue
        if leaves[0][0] is not None:
            sub = command_parser.add_subparsers(dest="subcommand", required=True)
        for name, leaf_help, add_arguments in leaves:
            if leaf is not None and leaf[1] != name:
                continue
            p = command_parser if name is None else sub.add_parser(name, help=leaf_help)
            add_arguments(p)
            p.add_argument("--json", action="store_true", help="print the JSON envelope")
            p.add_argument("--out", metavar="FILE", help="also write the JSON envelope to FILE")
            handler = command if name is None else f"{command}_{name}"
            p.set_defaults(run=(module, handler.replace("-", "_")))
    return parser


def _print_error(message: str) -> None:
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass  # a closed stderr leaves the exit code as it is


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    module, name = args.run
    # the import statement's machinery, unlike importlib.import_module, is
    # what -X importtime reports
    handler = getattr(__import__(f"satgenus.{module}", fromlist=[name]), name)
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
    _print_error("out of memory: the request needs more than this process can allocate")
    return EXIT_BUDGET


def run() -> None:
    """Run ``main`` on the command line and end the process with its exit
    code, skipping interpreter finalization; it does not return.

    argparse's exits (help, usage errors) end the same way.  A stdout whose
    reader has gone (a closed pipe) is reported as one ``error: cannot write
    stdout`` line on stderr and exit 2; a closed stderr leaves the exit code
    as it is.  Uncaught exceptions leave as they would from ``main``.
    """
    try:
        try:
            code = main()
        except SystemExit as exc:
            # argparse exits 0 after help and 2 after a usage error
            code = exc.code
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
