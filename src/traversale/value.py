"""The immutable-value base class of the package's objects.

A subclass lists its fields in ``__slots__`` and stores each one once, by
``_set``, in ``__init__`` or in a lazy memo; setting or deleting any name
afterwards raises AttributeError.  Values compare by identity unless the
subclass defines ``__eq__`` and ``__hash__``.
"""


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the slots' own descriptors store past the __setattr__ that forbids it
        cls._stores = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _set(self, *values, **fields):
        """Store ``values`` in the slots, in ``__slots__`` order, or else ``fields`` by name.

        A constructor passes every field positionally; a lazy memo names its one slot.
        """
        if fields:
            for name, value in fields.items():
                object.__setattr__(self, name, value)
        else:
            for store, value in zip(self._stores, values):
                store(self, value)
