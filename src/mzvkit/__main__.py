"""``python -m mzvkit``: the ``mzvkit`` command line."""

from .cli import main

raise SystemExit(main())
