"""Line counts of the symfa package: `wc -l` and code lines, per module.

A code line holds a token that is not a comment, a docstring or
layout (newlines, indentation), so trimming a docstring or a comment
does not count as removing code. A docstring here is any statement that
is a bare string. Stdlib only.

    python3 tools/src_lines.py [package_dir]   # default: src/symfa
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Lines of `path` that hold code, docstrings left out."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type == tokenize.NEWLINE:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif token.type not in LAYOUT:
                statement.append(token)
    return len(lines)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "symfa"
    package = Path(argv[1]) if len(argv) > 1 else default
    total_wc = total_code = 0
    print(f"{'module':<24}{'wc -l':>8}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        wc = len(path.read_bytes().splitlines())
        code = code_lines(path)
        total_wc += wc
        total_code += code
        print(f"{path.name:<24}{wc:>8}{code:>8}")
    print(f"{'total':<24}{total_wc:>8,}{total_code:>8,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
