"""Count the code, docstring and comment-only lines of a Python package.

    python3 tools/lines.py [DIR]

DIR defaults to src/quadpole beside this script's directory.  Every .py
file under it is read.  A line counts once, blank lines not at all:

- code: a line that holds a token outside the docstrings;
- docstring: a line of a module, class or function docstring;
- comment-only: the rest, lines that hold only a comment.

Prints one line per file and a total, as code / docstring / comment-only /
public names, the last the length of the file's literal ``__all__`` list
(0 where it has none).
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree):
    """Line numbers spanned by the module, class and function docstrings of a parsed file."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _public_names(tree):
    """The number of names in a parsed file's top-level ``__all__ = [...]``, else 0."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return len(node.value.elts)
    return 0


def count(text):
    """(code, docstring, comment-only, public names) counts of one file's source text."""
    tree = ast.parse(text)
    docs = _docstrings(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    filled = [n for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    n_code = sum(n in code for n in filled)
    n_docs = sum(n not in code and n in docs for n in filled)
    return n_code, n_docs, len(filled) - n_code - n_docs, _public_names(tree)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "quadpole"
    totals = [0, 0, 0, 0]
    for path in sorted(root.rglob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        totals = [t + c for t, c in zip(totals, counts)]
        print("%5d %5d %5d %5d  %s" % (*counts, path.relative_to(root)))
    print("%5d %5d %5d %5d  total (code, docstring, comment-only, public names)"
          % tuple(totals))


if __name__ == "__main__":
    main()
