"""`python -m fedsim ...` runs the fedsim command line (cli.main), so a
checkout runs it without installing: `PYTHONPATH=src python -m fedsim check`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
