//! Every registered workload lints with **zero errors** — before
//! allocation, and after allocation under the paper's best configuration
//! both without and with the compiler-assisted last-use hints (whose
//! guarded conditional ORF entries the placement checks must accept).
//! Warnings are
//! allowed (the `reduction` tree has unavoidably conservative race
//! findings, and several kernels legitimately exceed the upper-level
//! capacity), but an error on shipped-and-passing workload code would be
//! a false positive by construction: every workload also passes the
//! differential execution suite.

use rfh_lint::{lint_kernel, LintOptions, Severity};

#[test]
fn all_workloads_lint_without_errors() {
    let config = rfh_alloc::AllocConfig::default();
    let model = rfh_energy::EnergyModel::paper();
    let options = LintOptions {
        alloc: config,
        ..Default::default()
    };
    let workloads = rfh_workloads::all();
    assert!(workloads.len() >= 35, "workload registry shrank");

    for w in &workloads {
        let errors: Vec<_> = lint_kernel(&w.kernel, &options)
            .into_iter()
            .filter(|d| d.severity() == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "workload {} lints with errors before allocation: {errors:?}",
            w.name
        );

        for hints in [false, true] {
            let mut allocated = w.kernel.clone();
            rfh_alloc::allocate_with_hints(&mut allocated, &config, &model, hints)
                .unwrap_or_else(|e| panic!("workload {} fails to allocate: {e}", w.name));
            let errors: Vec<_> = lint_kernel(&allocated, &options)
                .into_iter()
                .filter(|d| d.severity() == Severity::Error)
                .collect();
            assert!(
                errors.is_empty(),
                "workload {} (hints {hints}) lints with errors after allocation: {errors:?}",
                w.name
            );
        }
    }
}
