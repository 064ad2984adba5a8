"""Help and usage errors of the satgenus command line, rendered from its
option table.

``satgenus.cli.main`` reads every command line off its table ``_COMMANDS``
(see ``cli._parse_by_table``) and loads this module, through
``cli.build_parser``, only to answer ``-h``, ``--help`` or a usage error.
The table comes in as an argument: run as ``python -m satgenus.cli``, the
cli module is ``__main__``, and importing ``satgenus.cli`` here would compile
and run it a second time.

Help goes to stdout, exit 0.  A usage error is one usage line and one
``satgenus <path>: error: ...`` line on stderr, exit 2, also when stderr is
closed.  No line is wrapped.
"""

from __future__ import annotations

import sys

from . import EXIT_OK, EXIT_USAGE

PROG = "satgenus"
DESCRIPTION = "Genus bounds for braided satellite links and their covering-surface arithmetic."


def _spelling(flag: str, kind) -> str:
    """An option as usage and help write it: the flag and its metavar, the
    choices for a tuple kind, FILE for ``--out``."""
    if kind is bool:
        return flag
    if isinstance(kind, tuple):
        return f"{flag} {{{','.join(kind)}}}"
    return f"{flag} {'FILE' if flag == '--out' else flag[2:].upper().replace('-', '_')}"


class Parser:
    """Help and usage errors of an option table laid out as
    ``cli._COMMANDS``, every leaf also taking ``output_options``.  A level
    of the table is named by its path: ``[]``, a command such as
    ``["cover"]``, or a leaf such as ``["cover", "enumerate"]`` or
    ``["bounds"]``."""

    def __init__(self, commands: dict, output_options: list) -> None:
        self.commands = commands
        self.output_options = output_options

    def _level(self, path: list[str]) -> tuple[str, list, list]:
        """(help, names, options) of a level: the (name, help) of the
        commands or subcommands it offers, or the options of a leaf."""
        if not path:
            return DESCRIPTION, [(name, entry[0]) for name, entry in self.commands.items()], []
        command_help, _, leaves = self.commands[path[0]]
        if len(path) == 1 and leaves[0][0] is not None:
            return command_help, [(name, leaf_help) for name, leaf_help, _ in leaves], []
        name = path[1] if len(path) > 1 else None
        _, leaf_help, options = next(leaf for leaf in leaves if leaf[0] == name)
        return leaf_help or command_help, [], options + self.output_options

    def format_usage(self, path: list[str]) -> str:
        _, names, options = self._level(path)
        parts = ["usage:", PROG, *path, "[-h]"]
        if names:
            parts.append("{" + ",".join(name for name, _ in names) + "} ...")
        for flag, kind, required, _ in options:
            parts.append(_spelling(flag, kind) if required else f"[{_spelling(flag, kind)}]")
        return " ".join(parts)

    def format_help(self, path: list[str]) -> str:
        """The usage line, the level's help, its commands or subcommands and
        its options, each option with its metavar, whether it is required
        and its help."""
        text, names, options = self._level(path)
        sections = [
            ("subcommands" if path else "commands", names),
            ("options", [("-h, --help", "show this help message and exit")] + [
                (_spelling(flag, kind), ("(required) " if required else "") + (option_help or ""))
                for flag, kind, required, option_help in options
            ]),
        ]
        width = max(len(entry) for _, rows in sections for entry, _ in rows) + 2
        lines = [self.format_usage(path), "", text]
        for title, rows in sections:
            if rows:
                lines += ["", f"{title}:"]
                lines += [f"  {entry:<{width}}{entry_help}".rstrip() for entry, entry_help in rows]
        return "\n".join(lines) + "\n"

    def answer(self, path: list[str], error: str | None) -> int:
        """Print the help of a level (error None) or a usage error there;
        return the exit code."""
        if error is None:
            sys.stdout.write(self.format_help(path))
            return EXIT_OK
        try:
            sys.stderr.write(f"{self.format_usage(path)}\n{' '.join([PROG, *path])}: error: {error}\n")
        except OSError:
            pass  # a closed stderr leaves the exit code as it is
        return EXIT_USAGE
