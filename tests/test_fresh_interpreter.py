"""What holds in a fresh interpreter, which each `attest` command starts.

pytest itself has loaded most of the standard library by the time a test
runs, so these tests start a new Python process for what they check.
"""

import os
import subprocess
import sys
from pathlib import Path

import attestsim

SRC = Path(attestsim.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent

# Runs every corpus config, writes its outputs, and prints one sha256 over
# every file written, in a fixed order.
HASH_CORPUS_OUTPUTS = """
import hashlib, sys
from pathlib import Path
from corpus import RAW_CORPUS
from attestsim import run, validate_config, write_outputs
digest = hashlib.sha256()
for name in sorted(RAW_CORPUS):
    paths = write_outputs(run(validate_config(RAW_CORPUS[name])), Path(sys.argv[1]) / name)
    for key in sorted(paths):
        digest.update(Path(paths[key]).read_bytes())
print(digest.hexdigest())
"""


def _python(code: str, *args, **env) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(TESTS))), **env)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, which
    every command would pay for at start-up; the package uses none of them."""
    loaded = _python("import sys, attestsim; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert loaded == "[]\n"


def test_trace_and_report_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    digests = {
        seed: _python(HASH_CORPUS_OUTPUTS, str(tmp_path / seed), PYTHONHASHSEED=seed)
        for seed in ("0", "1")
    }
    assert len(digests["0"].strip()) == 64
    assert digests["0"] == digests["1"]
