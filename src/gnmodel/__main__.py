"""``python -m gnmodel``: the same command line as the ``gnmodel`` script."""
from .cli import main

if __name__ == "__main__":
    main()
