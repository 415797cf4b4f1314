"""The immutable-value base class of the package's objects.

A subclass lists its fields in ``__slots__`` and stores each one once, by
``_set``, in ``__init__`` or in a lazy memo; setting or deleting any name
afterwards raises AttributeError.  Values compare by identity unless the
subclass defines ``__eq__`` and ``__hash__``.
"""


class Value:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)
