"""The one budget exception shared by every bounded search."""


class BudgetExceeded(RuntimeError):
    """A search passed its configured budget; a checkpoint was written when
    the search keeps one and a path was configured."""
