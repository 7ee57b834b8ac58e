"""Static checks on the package source, read with `ast`."""

import ast
import dataclasses
import pathlib

import fermient
from fermient.config import Capacities, Tolerances

SRC = pathlib.Path(fermient.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_modules_use_every_name_they_import():
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":       # re-exports the public names
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {ident}" for ident, line in imported.items()
                   if ident not in used]
    assert unused == []


def test_philox_is_constructed_at_one_site():
    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (getattr(node.func, "attr", None) == "Philox"
                  or getattr(node.func, "id", None) == "Philox")]
    assert len(sites) == 1, sites


def test_square_roots_outside_hermlin_are_checked():
    # sqrt_from_spectrum skips the square check; elsewhere roots come from psd_root
    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and "sqrt_from_spectrum" in (getattr(node.func, "attr", None),
                                          getattr(node.func, "id", None))]
    assert sites and all(site.startswith("hermlin.py:") for site in sites), sites


def test_only_the_remainder_and_psd_root_take_raw_eigenvectors():
    # ef_optimize's start and ef_exact_m4 read phi, so they keep the canonical basis
    sites = [f"{name}:{fn.name}" for name, tree in _trees().items()
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.Call)
             for kw in node.keywords if kw.arg == "canonical"
             and not (isinstance(kw.value, ast.Constant) and kw.value.value is True)]
    assert sorted(sites) == ["entmeasures.py:_remainder_terms",
                             "entmeasures.py:_remainder_terms", "hermlin.py:psd_root"], sites


def test_files_are_opened_only_in_report():
    # report.read_text and report.write_text are the one reader and writer
    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and "open" in (getattr(node.func, "attr", None),
                            getattr(node.func, "id", None))]
    assert sites and all(site.startswith("report.py:") for site in sites), sites


def test_user_files_are_read_only_in_cli():
    # outside input enters through cli; the loaders themselves call read_text
    readers = ("load_state", "load_rdm", "read_text")

    def calls(tree):
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name in readers
                  for node in ast.walk(fn)}
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.Call) and id(node) not in inside
                and {getattr(node.func, "attr", None),
                     getattr(node.func, "id", None)} & set(readers)]

    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in calls(tree)]
    assert sites and all(site.startswith("cli.py:") for site in sites), sites


def test_tolerances_are_resolved_once_in_main():
    calls = [fn.name for fn in ast.walk(_trees()["cli.py"]) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_resolve_tol"]
    assert calls == ["main"]


def test_every_tolerance_and_capacity_is_read():
    # a threshold printed in every header must be enforced somewhere
    read = {node.attr for tree in _trees().values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = {f.name for record in (Tolerances, Capacities)
              for f in dataclasses.fields(record)}
    assert sorted(fields - read) == []


def test_every_parameter_is_read():
    unread = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                body = fn.body if isinstance(fn.body, list) else [fn.body]
                read = {node.id for stmt in body for node in ast.walk(stmt)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
                args = fn.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [
                    a for a in (args.vararg, args.kwarg) if a is not None]
                unread += [f"{name}:{fn.lineno} {p.arg}" for p in params if p.arg not in read]
    assert unread == []


def test_spectral_support_is_judged_only_in_hermlin():
    # hermlin.support alone compares eigenvalues with support_cutoff or psd_fail
    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             if name != "hermlin.py"
             for node in ast.walk(tree) if isinstance(node, ast.Compare)
             for operand in ast.walk(node)
             if isinstance(operand, ast.Attribute)
             and operand.attr in ("support_cutoff", "psd_fail")]
    assert sites == []


def test_gather_table_is_read_only_in_rdmcore():
    # gather_amplitudes and scatter_amplitudes carry the table's layout out
    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             if name != "rdmcore.py"
             for node in ast.walk(tree)
             if "_gather_table" in (getattr(node, "id", None), getattr(node, "attr", None),
                                    getattr(node, "name", None))]
    assert sites == []


def test_antisym_table_is_read_only_in_rdmcore():
    # every wedge <-> tensor map applies the antisymmetrizer by index there
    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             if name != "rdmcore.py"
             for node in ast.walk(tree)
             if "_antisym_table" in (getattr(node, "id", None), getattr(node, "attr", None),
                                     getattr(node, "name", None))]
    assert sites == []


def test_party_axes_are_permuted_only_in_rdmcore():
    # project_antisymmetric owns SWAP: swapaxes(0, 1), transpose(1, 0, ...)
    def axes(call):
        args = call.args
        if args and isinstance(args[-1], (ast.Tuple, ast.List)):   # transpose((1, 0))
            args = args[-1].elts
        return [getattr(a, "value", None) for a in args]

    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             if name != "rdmcore.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and ((getattr(node.func, "attr", None) == "swapaxes" and axes(node)[-2:] == [0, 1])
                  or (getattr(node.func, "attr", None) == "transpose"
                      and axes(node)[:2] == [1, 0]))]
    assert sites == []


def test_mode_bitmasks_are_read_only_below_the_reduction_layer():
    # colex masks, merge signs and sorted ranks live in fockbasis, statekit and
    # rdmcore; above them every wedge map (the four-mode Hodge dual too) reads
    # rdmcore's gather table
    names = ("colex_masks", "merge_sign", "spread_bits", "searchsorted")
    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             if name not in ("fockbasis.py", "statekit.py", "rdmcore.py")
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (getattr(node.func, "attr", None) in names
                  or getattr(node.func, "id", None) in names)]
    assert sites == []


def test_only_suites_builds_kronecker_products():
    # the subadditivity remainders apply x_b sqrt(rho_b) block by block; only the
    # product-state cases of the subadd suite build rho1 x rho2 (hermlin.kron
    # wraps np.kron under the tensor_dim guard)
    def calls(tree):
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "kron"
                  for node in ast.walk(fn)}
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.Call) and id(node) not in inside
                and "kron" in (getattr(node.func, "attr", None),
                               getattr(node.func, "id", None))]

    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in calls(tree)]
    assert sites and all(site.startswith("suites.py:") for site in sites), sites


def test_no_tensor_dm_is_built_with_both_representations():
    # a TensorDM holds a dense matrix or factors, never both; dense() builds a
    # factored one's matrix on demand, under the tensor_dim guard
    def given(node):
        return node is not None and not (isinstance(node, ast.Constant) and node.value is None)

    def both(call):
        kw = {k.arg: k.value for k in call.keywords}
        matrix = call.args[2] if len(call.args) > 2 else kw.get("matrix")
        factors = call.args[3] if len(call.args) > 3 else kw.get("factors")
        return given(matrix) and given(factors)

    calls = [(name, node) for name, tree in _trees().items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and "TensorDM" in (getattr(node.func, "attr", None),
                                getattr(node.func, "id", None))]
    assert calls
    assert [f"{name}:{node.lineno}" for name, node in calls if both(node)] == []


def test_one_descent_loop_retracts():
    # _descend runs every restart's lanes in lockstep; a second conjugate
    # gradient loop would need its own retraction. The one other QR is
    # ef_optimize's Haar draw of a restart's start, which takes Q as it comes.
    def sites(callee):
        return sorted(f"{name}:{fn.name}" for name, tree in _trees().items()
                      for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                      for node in ast.walk(fn) if isinstance(node, ast.Call)
                      and callee in (getattr(node.func, "attr", None),
                                     getattr(node.func, "id", None)))

    assert sites("_retract") == ["entmeasures.py:_descend"]
    assert sites("qr") == ["entmeasures.py:_retract", "entmeasures.py:ef_optimize"]


def test_no_function_rebinds_an_imported_name():
    # a local that shadows an import hides the import from the rest of that
    # function; parameters are not checked
    sites = set()
    for name, tree in _trees().items():
        imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        sites |= {f"{name}:{fn.name}:{node.id}"
                  for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                  and node.id in imported}
    assert sorted(sites) == []


def test_capacities_are_read_only_as_the_module_cap():
    # capacities are fixed limits: no function takes a record to override them,
    # and every guard reads its own module's CAP
    fields = {f.name for f in dataclasses.fields(Capacities)}
    params = [f"{name}:{fn.name}:{a.arg}" for name, tree in _trees().items()
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.Lambda))
              for a in (fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs)
              if a.arg == "cap" or (a.annotation is not None
                                    and "Capacities" in ast.unparse(a.annotation))]
    reads = [f"{name}:{node.lineno} {ast.unparse(node)}" for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and node.attr in fields
             and not (isinstance(node.value, ast.Name) and node.value.id == "CAP")]
    assert params == [] and reads == []


def test_text_loaders_read_their_own_header():
    # loads_state and loads_rdm take the text alone and find its header
    # themselves; no function takes a header scan
    params = [(f"{name}:{getattr(fn, 'name', 'lambda')}",
               [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs])
              for name, tree in _trees().items()
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.Lambda))]
    loaders = {site: args for site, args in params
               if site in ("statekit.py:loads_state", "rdmcore.py:loads_rdm")}
    assert loaders == {"statekit.py:loads_state": ["text"], "rdmcore.py:loads_rdm": ["text"]}
    assert [site for site, args in params if "scan" in args] == []
