//! Experiment drivers — one module per table/figure of the paper's
//! evaluation (§5–6). Each returns structured data; `check repro <target>`
//! (`gso_check::repro`) prints the regenerated rows/series, and the unit
//! tests here assert the *shape* of each result (who wins, by roughly what
//! factor).

pub mod fig12;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
