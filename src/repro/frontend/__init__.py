"""MiniC frontend: a C-subset language compiled to the repro IR.

MiniC stands in for GCC4CLI + C in the original HELIX toolchain.  It keeps
exactly the features the paper's workloads exercise: integers, floats,
one-dimensional arrays (global and frame-local), pointers with arithmetic,
functions, and unrestricted (irregular) control flow -- ``if``/``else``,
``while``, ``for``, ``break``, ``continue``, early ``return``, short-circuit
booleans.

Typical use::

    from repro.frontend.lower import compile_source
    module = compile_source(open("program.mc").read())

The package imports none of its modules: import each name from the
module that defines it, so an importer loads only what it uses.
"""
