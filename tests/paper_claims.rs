//! The paper's claims, checked at the sizes the reproduction publishes:
//! every row of `iris_bench::paper::PAPER` (`iris-experiments <id>|all`
//! prints the same runs) must pass its checks; a failure names every
//! failing row and its broken claims. Each `claim_*` test asserts the row
//! that holds that claim; a row runs once however many tests name it.

iris_bench::paper_tests! {
    every_paper_row_holds_its_claims: "all";
    claim_workload_characterisation: "fig5";
    claim_coverage_fitting_is_high: "fig6";
    claim_mode_ladder_and_vmwrite_fitting: "fig8";
    claim_replay_time_improvement: "fig9";
    claim_replay_throughput_order_of_20k: "fig9";
    claim_ideal_throughput_near_50k: "fig9";
    claim_boot_state_experiment: "boot_state";
    claim_seed_memory_overhead: "seed_memory";
}
