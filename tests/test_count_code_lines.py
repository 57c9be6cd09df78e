"""tools/count_code_lines.py, the one rule every code-line count uses, run
as a script on a small synthetic package."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"

# 8 code lines: the import, the class and the two defs, the return, and the
# three lines of the string that is not a docstring
MODULE = '''"""Module docstring,
over two lines."""
import os  # a comment after code


# a comment on its own line
class Box:
    """Class docstring."""

    def size(self):
        """Function docstring,
        over two lines."""
        return os.sep

    async def text(self):
        """Async function docstring."""
        # another comment
        """A string after the first statement is not a docstring:
        each of its lines counts
        """
'''

# 2 code lines: a string assignment that starts the module is no docstring
OTHER = '''x = """not a
docstring"""
'''


def test_count_code_lines(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "box.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "sub" / "other.py").write_text(OTHER, encoding="utf-8")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    *modules, total = [line.split(None, 1) for line in out.splitlines()]
    counts = {name: int(n) for n, name in modules}
    assert counts == {"box.py": 8, str(Path("sub", "other.py")): 2}
    assert total == ["10", f"total ({tmp_path})"]
    assert int(total[0]) == sum(counts.values())
