import pytest


@pytest.fixture
def record_calls(monkeypatch):
    """record(name, *modules, value=...) rebinds name in each module to a
    wrapper that calls the module's own binding and then appends
    value(args, result) to one list, which it returns; by default the
    positional arguments.  The bindings are restored with monkeypatch's."""

    def record(name, *modules, value=lambda args, result: args):
        calls = []

        def wrap(original):
            def recorded(*args, **kwargs):
                result = original(*args, **kwargs)
                calls.append(value(args, result))
                return result
            return recorded
        for module in modules:
            monkeypatch.setattr(module, name, wrap(getattr(module, name)))
        return calls
    return record
