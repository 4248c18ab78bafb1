//! Rebuilding the server's group commits from what clients saw.
//!
//! Every `Server::stream` call returns the snapshot published by the flush
//! that contained its ops, so grouping ops by the returned generation gives
//! back each flush's exact batch. The order of ops inside a batch is lost;
//! it does not matter when clients write disjoint rows.

use std::collections::BTreeMap;

/// One acknowledged write: the generation it landed in and its ops, plus a
/// fingerprint of the report that generation published.
#[derive(Debug, Clone, PartialEq)]
pub struct Ack<Op> {
    pub generation: u64,
    pub ops: Vec<Op>,
    pub report: u64,
}

/// One rebuilt flush.
#[derive(Debug, Clone, PartialEq)]
pub struct Flush<Op> {
    pub generation: u64,
    pub ops: Vec<Op>,
    pub report: u64,
}

/// Groups acknowledged writes by generation into flushes `first..=last`.
///
/// Errors when a generation in that range has no write (a flush the
/// clients cannot account for, so a replay would diverge) or when two
/// clients saw different reports for one generation.
pub fn rebuild<Op>(first: u64, acks: Vec<Ack<Op>>) -> Result<Vec<Flush<Op>>, String> {
    let mut by_gen: BTreeMap<u64, Flush<Op>> = BTreeMap::new();
    for ack in acks {
        match by_gen.get_mut(&ack.generation) {
            Some(flush) => {
                if flush.report != ack.report {
                    return Err(format!(
                        "generation {} published two different reports",
                        ack.generation
                    ));
                }
                flush.ops.extend(ack.ops);
            }
            None => {
                by_gen.insert(
                    ack.generation,
                    Flush {
                        generation: ack.generation,
                        ops: ack.ops,
                        report: ack.report,
                    },
                );
            }
        }
    }
    for (expected, &generation) in (first..).zip(by_gen.keys()) {
        if generation != expected {
            return Err(format!(
                "flush generations have a gap: expected {expected}, found {generation}"
            ));
        }
    }
    Ok(by_gen.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(generation: u64, op: u32, report: u64) -> Ack<u32> {
        Ack {
            generation,
            ops: vec![op],
            report,
        }
    }

    #[test]
    fn groups_interleaved_clients_by_generation() {
        // Client A wrote 10 and 11, client B wrote 20 and 21; 11 and 20
        // were group-committed together in generation 2.
        let acks = vec![ack(1, 10, 7), ack(2, 11, 8), ack(2, 20, 8), ack(3, 21, 9)];
        let flushes = rebuild(1, acks).expect("contiguous");
        let batches: Vec<(u64, Vec<u32>)> = flushes
            .iter()
            .map(|f| (f.generation, f.ops.clone()))
            .collect();
        assert_eq!(
            batches,
            vec![(1, vec![10]), (2, vec![11, 20]), (3, vec![21])]
        );
        assert_eq!(flushes[1].report, 8);
    }

    #[test]
    fn a_missing_generation_is_an_error() {
        let err = rebuild(1, vec![ack(1, 1, 0), ack(3, 2, 0)]).unwrap_err();
        assert!(err.contains("expected 2, found 3"), "{err}");
        assert!(rebuild(2, vec![ack(1, 1, 0)]).is_err());
    }

    #[test]
    fn disagreeing_reports_are_an_error() {
        assert!(rebuild(1, vec![ack(1, 1, 5), ack(1, 2, 6)]).is_err());
    }

    #[test]
    fn no_writes_means_no_flushes() {
        assert!(rebuild::<u32>(1, Vec::new()).expect("empty").is_empty());
    }
}
