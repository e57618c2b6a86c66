//! Table 1 — the worked examples of the control algorithm.
//!
//! Solves the paper's three cases (limited downlink, limited uplink,
//! both limited; built by [`ladders::table1_case`]) and returns the final
//! per-client publish configuration in the table's layout, so
//! `check repro table1` can print the table and tests can assert exact
//! equality with the paper.

use gso_algo::{ladders, solver, Resolution, SolverConfig, SourceId};
use gso_util::{Bitrate, ClientId};

/// One client's row: publish bitrate per resolution column (720P/360P/180P).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Client label (A/B/C).
    pub client: char,
    /// Published bitrate at 720P, if any.
    pub r720: Option<Bitrate>,
    /// Published bitrate at 360P, if any.
    pub r360: Option<Bitrate>,
    /// Published bitrate at 180P, if any.
    pub r180: Option<Bitrate>,
}

/// Solve one case and lay the result out as table rows.
pub fn solve_case(case: usize) -> Vec<Table1Row> {
    let problem = ladders::table1_case(case);
    let solution = solver::solve(&problem, &SolverConfig::default());
    solution.validate(&problem).expect("Table 1 solution valid");
    ['A', 'B', 'C']
        .iter()
        .enumerate()
        .map(|(i, &label)| {
            let policies = solution.policies(SourceId::video(ClientId(i as u32 + 1)));
            let at =
                |res: Resolution| policies.iter().find(|p| p.resolution == res).map(|p| p.bitrate);
            Table1Row {
                client: label,
                r720: at(Resolution::R720),
                r360: at(Resolution::R360),
                r180: at(Resolution::R180),
            }
        })
        .collect()
}

/// The paper's published final solutions, for verification.
pub fn paper_rows(case: usize) -> Vec<Table1Row> {
    let k = |v: u64| Some(Bitrate::from_kbps(v));
    match case {
        0 => vec![
            Table1Row { client: 'A', r720: k(1_500), r360: k(400), r180: None },
            Table1Row { client: 'B', r720: None, r360: k(800), r180: k(100) },
            Table1Row { client: 'C', r720: None, r360: k(800), r180: k(300) },
        ],
        1 => vec![
            Table1Row { client: 'A', r720: k(1_500), r360: None, r180: None },
            Table1Row { client: 'B', r720: None, r360: k(600), r180: None },
            Table1Row { client: 'C', r720: None, r360: k(800), r180: k(300) },
        ],
        2 => vec![
            Table1Row { client: 'A', r720: k(1_500), r360: k(400), r180: None },
            Table1Row { client: 'B', r720: None, r360: k(600), r180: None },
            Table1Row { client: 'C', r720: None, r360: None, r180: k(300) },
        ],
        _ => panic!("Table 1 has three cases"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_cases_match_the_paper_exactly() {
        for case in 0..3 {
            assert_eq!(solve_case(case), paper_rows(case), "case {}", case + 1);
        }
    }
}
