"""The CLI's subcommands, one module each (cyarith.commands.<name>, whose
main(args) runs it), and common, the input and output helpers they share.
cyarith.cli imports only the module of the subcommand it runs, and no module
here imports cyarith.cli: under `python -m` that runs as __main__."""
