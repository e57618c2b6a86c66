//! Known-bad fixture: results merged in thread-completion order.

pub fn solve_all(jobs: Vec<u64>) -> Vec<u64> {
    let mut handles = Vec::new();
    for job in jobs {
        handles.push(std::thread::spawn(move || job * 2));
    }
    handles.into_iter().map(|h| h.join().unwrap_or(0)).collect()
}
