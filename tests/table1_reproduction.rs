//! Paper-fidelity gate: the implemented control algorithm must reproduce
//! Table 1 of the paper exactly — all three worked cases, every client,
//! every resolution column.

use gso_simulcast::sim::experiments::table1;

#[test]
fn table1_all_cases_exact() {
    for case in 0..3 {
        let got = table1::solve_case(case);
        let expected = table1::paper_rows(case);
        assert_eq!(got, expected, "Table 1 case {} diverged from the paper", case + 1);
    }
}

#[test]
fn table1_solutions_satisfy_all_constraints() {
    for case in 0..3 {
        let problem = gso_simulcast::algo::ladders::table1_case(case);
        let solution = gso_simulcast::algo::solver::solve(&problem, &Default::default());
        solution.validate(&problem).unwrap();
        // Uplink discipline: nobody exceeds their budget.
        for client in problem.clients() {
            assert!(solution.publish_rate(client.id) <= client.uplink);
            assert!(solution.receive_rate(client.id) <= client.downlink);
        }
    }
}

#[test]
fn table1_is_deterministic() {
    for case in 0..3 {
        assert_eq!(table1::solve_case(case), table1::solve_case(case));
    }
}
