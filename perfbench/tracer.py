"""Outside-in tracing of the `bhlab` library, inside one op process.

`Tracer.install` wraps every public function each layer module defines and
rebinds the wrapper in every `bhlab` module that holds the function, so
calls made through `from .arith import sieve_primes` are traced too.
Nothing in `src/` is edited.

- Most functions get a span per call: name, start, end, parent span, op id.
  Generator functions get a span per `next`.
- The hot scalar helpers in COUNTED get a call counter and no span; their
  time stays in the caller's self time.
- VALUES computes exact work counts from arguments or results.

Spans stay in memory; `dump` hands them to the op shim, which writes them
out when the op ends.
"""

import functools
import importlib
import inspect
import sys
import threading
import time

LAYERS = ("arith", "poly", "eulerprod", "identities", "sieve", "moments",
          "budgets", "cli")

# Called up to millions of times per op: counted, never timed.
COUNTED = frozenset({
    "arith.is_prime_u64", "arith.integer_root", "arith.von_mangoldt",
    "arith.factorize", "arith.mobius", "arith.euler_phi",
    "arith.omega_distinct", "arith.is_squarefree",
    "poly.eval_poly", "poly.value_bound",
    "identities.residue_root_count",
    "budgets.family_budget", "budgets.residue_budget",
    "budgets.progression_budget", "budgets.check",
    "cli.fmt",
})


def _visit_evals(args, result):
    return args["spec"].visit_count * int(args["x"])


def _residue_tuples(args, result):
    return args["k"] ** (args["d"] + 1)


# entry point -> (value name, function of (bound arguments, result)).
# sieve_primes keeps every limit so the run can count distinct ones.
VALUES = {
    "arith.von_mangoldt_table": ("bytes", lambda args, result: result.nbytes),
    "arith.sieve_primes": ("limits", lambda args, result: args["limit"]),
    "identities.multiplicative_average": ("tuples", _residue_tuples),
    "identities.squared_factor_sum": ("tuples", _residue_tuples),
    "moments.second_moment": ("evals", _visit_evals),
}

# Entry points the per-layer metrics are built on.  The benchmark stops if
# one of them is gone rather than reporting zeros for it.
REQUIRED = frozenset({
    "arith.von_mangoldt_table", "arith.sieve_primes",
    "poly.coefficient_chunks", "poly.roots_count_mod_prime",
    "identities.multiplicative_average", "identities.squared_factor_sum",
    "identities.residue_root_count", "sieve.sandwich_check",
    "sieve.sieve_sum", "eulerprod.truncated_bh_constant",
    "moments.second_moment", "moments.bv_average", "budgets.check",
    "cli.main",
})


def public_functions(package):
    """{"layer.name": function} for the public functions each layer defines.

    Raises LookupError when a layer module or a REQUIRED entry point is gone.
    """
    found = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{package.__name__}.{layer}")
        except ModuleNotFoundError as exc:
            raise LookupError(f"layer module {package.__name__}.{layer} "
                              f"no longer exists") from exc
        for name, obj in vars(module).items():
            if (not name.startswith("_") and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__):
                found[f"{layer}.{name}"] = obj
    missing = sorted(REQUIRED - found.keys())
    if missing:
        raise LookupError("traced entry points no longer exist: "
                          + ", ".join(missing))
    return found


class Tracer:
    def __init__(self, op_id, t0):
        self.op_id = op_id
        self.t0 = t0
        self.spans = []     # [name, start, end, parent index or None]
        self.counts = {}
        self.values = {}
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None,
                           stack[-1] if stack else None])
        stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.monotonic()
        self._stack().pop()

    def _add_value(self, name, amount):
        self.values.setdefault(name, []).append(int(amount))

    def _counted(self, key, fn):
        counts = self.counts
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, key, fn):
        value_name, compute = VALUES.get(key, (None, None))
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if compute is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._add_value(value_name, compute(bound.arguments, result))
            return result
        return wrapper

    def _spanned_generator(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = self.begin(key)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                self._add_value(key + ".yields", 1)
                yield item
        return wrapper

    def install(self, package):
        """Wrap the public functions and rebind them wherever they are held."""
        wrappers = {}
        for key, fn in public_functions(package).items():
            if key in COUNTED:
                wrapped = self._counted(key, fn)
            elif inspect.isgeneratorfunction(fn):
                wrapped = self._spanned_generator(key, fn)
            else:
                wrapped = self._spanned(key, fn)
            wrappers[id(fn)] = wrapped
        prefix = package.__name__ + "."
        for name, module in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(prefix):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])

    def dump(self):
        """Spans with times relative to the op's spawn, counts and values."""
        return {
            "op": self.op_id,
            "spans": [[name, start - self.t0,
                       (time.monotonic() if end is None else end) - self.t0,
                       parent]
                      for name, start, end, parent in self.spans],
            "counts": self.counts,
            "values": self.values,
        }
