"""Counts and views of a parameter store and of a dataset split that only
tests read."""


def total_params(store):
    return sum(t.size for _, t, _ in store.items())


def trainable_params(store):
    return sum(t.size for _, t in store.trainable())


def frozen(store):
    """(name, Tensor) of every frozen entry, in store order."""
    return [(n, t) for n, t, fr in store.items() if fr]


def is_frozen(store, name):
    return not store[name].requires_grad


def all_cases(split):
    """Every case of a ``DatasetSplit``: train, then val, then test."""
    return split.train + split.val + split.test
