//! LZ77 match finding with hash chains and one-step lazy matching
//! (the DEFLATE strategy) over a 32 KiB sliding window.

/// Maximum back-reference distance.
pub const MAX_DISTANCE: usize = 32 * 1024;
/// Minimum match length worth emitting.
pub const MIN_MATCH: usize = 3;
/// Maximum match length.
pub const MAX_MATCH: usize = 258;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
const NO_POS: u32 = u32::MAX;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes behind.
    Match {
        /// Match length in `[MIN_MATCH, MAX_MATCH]`.
        len: u16,
        /// Distance in `[1, MAX_DISTANCE]`.
        dist: u16,
    },
}

/// Maximum hash-chain positions probed per match attempt.
const MAX_CHAIN: usize = 128;
/// Stop searching once a match of this length is found.
const GOOD_ENOUGH: usize = 96;

fn hash3(data: &[u8], i: usize) -> usize {
    let v = u32::from(data[i]) | u32::from(data[i + 1]) << 8 | u32::from(data[i + 2]) << 16;
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut n = 0;
    while n < max && data[a + n] == data[b + n] {
        n += 1;
    }
    n
}

/// Tokenizes `data`.
///
/// The output, expanded by [`expand`], reproduces `data` exactly.
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    let n = data.len();
    let mut out = Vec::new();
    if n < MIN_MATCH {
        out.extend(data.iter().map(|&b| Token::Literal(b)));
        return out;
    }
    let mut head = vec![NO_POS; HASH_SIZE];
    let mut prev = vec![NO_POS; n];

    let insert = |head: &mut [u32], prev: &mut [u32], i: usize| {
        if i + MIN_MATCH <= n {
            let h = hash3(data, i);
            prev[i] = head[h];
            head[h] = i as u32;
        }
    };

    let find = |head: &[u32], prev: &[u32], i: usize| -> Option<(usize, usize)> {
        if i + MIN_MATCH > n {
            return None;
        }
        let max = MAX_MATCH.min(n - i);
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut cand = head[hash3(data, i)];
        let mut chain = MAX_CHAIN;
        while cand != NO_POS && chain > 0 {
            let c = cand as usize;
            if c >= i {
                // Defensive: never match a position against itself.
                cand = prev[c];
                continue;
            }
            if i - c > MAX_DISTANCE {
                break;
            }
            let l = match_len(data, c, i, max);
            if l > best_len {
                best_len = l;
                best_dist = i - c;
                if l >= GOOD_ENOUGH || l == max {
                    break;
                }
            }
            cand = prev[c];
            chain -= 1;
        }
        if best_len >= MIN_MATCH {
            Some((best_len, best_dist))
        } else {
            None
        }
    };

    let mut i = 0usize;
    while i < n {
        let here = find(&head, &prev, i);
        match here {
            None => {
                out.push(Token::Literal(data[i]));
                insert(&mut head, &mut prev, i);
                i += 1;
            }
            Some((len, dist)) => {
                insert(&mut head, &mut prev, i);
                // Lazy: if the next position has a strictly longer match,
                // emit a literal now and take the longer match next round.
                let defer = i + 1 < n
                    && len < MAX_MATCH
                    && find(&head, &prev, i + 1).is_some_and(|(next_len, _)| next_len > len);
                if defer {
                    out.push(Token::Literal(data[i]));
                    i += 1; // position i already inserted above
                    continue;
                }
                out.push(Token::Match {
                    len: len as u16,
                    dist: dist as u16,
                });
                for j in i + 1..i + len {
                    insert(&mut head, &mut prev, j);
                }
                i += len;
            }
        }
    }
    out
}

/// Expands tokens back into bytes.
///
/// # Panics
/// Panics if a back-reference points before the start of the output
/// (corrupt token stream); the container decoder validates before calling.
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                assert!(dist >= 1 && dist <= out.len(), "bad distance");
                let start = out.len() - dist;
                // Overlapping copies are the point (run encoding).
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let tokens = tokenize(data);
        assert_eq!(expand(&tokens), data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for data in [&b""[..], b"a", b"ab", b"abc"] {
            round_trip(data);
        }
    }

    #[test]
    fn repetitive_input_uses_matches() {
        let data = b"abcabcabcabcabcabc";
        let tokens = tokenize(data);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "expected at least one match: {:?}",
            tokens
        );
        assert_eq!(expand(&tokens), data);
    }

    #[test]
    fn run_of_one_byte_overlapping_copy() {
        let data = vec![7u8; 1000];
        let tokens = tokenize(&data);
        assert!(
            tokens.len() < 20,
            "run should collapse, got {}",
            tokens.len()
        );
        assert_eq!(expand(&tokens), data);
    }

    #[test]
    fn incompressible_input_round_trips() {
        // Pseudo-random bytes: few/no matches, must still be lossless.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn long_range_matches_within_window() {
        let mut data = vec![0u8; 0];
        let chunk: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        data.extend_from_slice(&chunk);
        data.extend(std::iter::repeat_n(9u8, 20_000));
        data.extend_from_slice(&chunk); // 20 KiB back, within window
        round_trip(&data);
    }

    #[test]
    fn matches_do_not_cross_window() {
        // Same prefix repeated beyond MAX_DISTANCE: distances must stay
        // within the window.
        let mut data = b"0123456789abcdef".repeat(3000); // 48 KiB
        data.extend_from_slice(b"0123456789abcdef");
        let tokens = tokenize(&data);
        for t in &tokens {
            if let Token::Match { dist, .. } = t {
                assert!((*dist as usize) <= MAX_DISTANCE);
            }
        }
        assert_eq!(expand(&tokens), data);
    }

    #[test]
    fn match_lengths_capped() {
        let data = vec![1u8; 100_000];
        let tokens = tokenize(&data);
        for t in &tokens {
            if let Token::Match { len, .. } = t {
                assert!((*len as usize) <= MAX_MATCH);
                assert!((*len as usize) >= MIN_MATCH);
            }
        }
        assert_eq!(expand(&tokens), data);
    }
}
