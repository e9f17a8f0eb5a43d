"""Extract one commit of this repository into a directory, with ``git archive``.

Run from anywhere; ``DIR`` is taken relative to the current directory::

    python3 tools/archive_checkout.py HEAD~1 ../parent
    python3 tools/archive_checkout.py HEAD ../change

``DIR`` is created and must not exist yet, or be empty. The extraction holds the
commit's tracked files only: no ``.git``, no ignored or untracked files.

Both sides of a memory comparison should come from the same kind of checkout.
``perfbench/run.py``'s ``peak_rss_mib`` on ``table2_ko1d`` has read 1-2 MiB apart
between a ``git clone`` and a ``git archive`` extraction of one commit, with
equal sources, so a claim made on a clone against an extraction can show a
change that allocation layout alone makes. Extract both commits with this script.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def archive_checkout(rev, dest):
    """Write the tree of commit ``rev`` into the new or empty directory ``dest``."""
    if os.path.exists(dest) and (not os.path.isdir(dest) or os.listdir(dest)):
        raise SystemExit(f"{dest} exists and is not an empty directory")
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    os.makedirs(dest, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="tar")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the commit to extract, e.g. HEAD or a hash")
    parser.add_argument("dest", help="the directory to extract into")
    args = parser.parse_args(argv)
    try:
        archive_checkout(args.rev, args.dest)
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr.decode(errors="replace"))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
