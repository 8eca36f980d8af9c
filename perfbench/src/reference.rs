//! A fixed reference kernel that measures how fast the host is right now.
//!
//! ```text
//! perfbench-reference ITERATIONS
//! ```
//!
//! prints the seconds the kernel took.
//!
//! The host this benchmark runs on is shared, and its speed drifts in
//! waves (the same `occ` run takes 0.7 s in one minute and 1.1 s in the
//! next). Timing a fixed piece of work right before and after every
//! spawn lets `run.py` correct each run for the host's speed at that
//! moment. The kernel is independent of the repository's code, so a
//! change to the program never moves it: a tiny LRU list over 256 keys
//! with skewed keys from an xorshift generator — branchy, pointer-chasing
//! and floating-point work in L1, like the engine's own inner loops.

use std::hint::black_box;
use std::time::Instant;

const KEYS: usize = 256;
const CAPACITY: usize = 96;
const NONE: usize = usize::MAX;

/// Misses of `n` skewed accesses through a `CAPACITY`-slot LRU list.
fn lru_kernel(n: u64) -> u64 {
    let mut prev = [NONE; KEYS];
    let mut next = [NONE; KEYS];
    let mut cached = [false; KEYS];
    let (mut head, mut tail, mut len) = (NONE, NONE, 0usize);
    let mut x = 88_172_645_463_325_252u64;
    let mut misses = 0u64;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let r = (x >> 11) as f64 / (1u64 << 53) as f64;
        let k = ((r * r * r) * KEYS as f64) as usize % KEYS;
        if cached[k] {
            let (p, q) = (prev[k], next[k]);
            if p != NONE {
                next[p] = q
            } else {
                head = q
            }
            if q != NONE {
                prev[q] = p
            } else {
                tail = p
            }
            len -= 1;
        } else {
            misses += 1;
            if len == CAPACITY {
                let v = tail;
                let p = prev[v];
                if p != NONE {
                    next[p] = NONE
                } else {
                    head = NONE
                }
                tail = p;
                cached[v] = false;
                len -= 1;
            }
        }
        prev[k] = NONE;
        next[k] = head;
        if head != NONE {
            prev[head] = k
        } else {
            tail = k
        }
        head = k;
        cached[k] = true;
        len += 1;
    }
    misses
}

fn main() {
    let n: u64 = match std::env::args().nth(1).map(|a| a.parse()) {
        Some(Ok(n)) => n,
        _ => {
            eprintln!("usage: perfbench-reference ITERATIONS");
            std::process::exit(2);
        }
    };
    let t = Instant::now();
    black_box(lru_kernel(black_box(n)));
    println!("{}", t.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_keeps_the_list_consistent() {
        let a = lru_kernel(100_000);
        assert_eq!(a, lru_kernel(100_000));
        assert!(a > (CAPACITY as u64) && a < 100_000);
    }
}
