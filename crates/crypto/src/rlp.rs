//! Recursive Length Prefix (RLP) encoding.
//!
//! RLP is Ethereum's canonical serialization for transactions and blocks.
//! Block, transaction and receipt hashes are Keccak-256 over these bytes.
//! We implement the subset the substrate needs: lists of byte strings,
//! unsigned integers (minimal big-endian, no leading zeros) and
//! already-encoded nested items. Nothing decodes RLP: blocks travel
//! between peers as values, and the journal has its own codec.

/// Incremental RLP encoder.
///
/// # Examples
///
/// ```
/// use sereth_crypto::rlp::RlpStream;
///
/// let encoded = RlpStream::new_list(2)
///     .append_bytes(b"cat")
///     .append_bytes(b"dog")
///     .finish();
/// assert_eq!(encoded, vec![0xc8, 0x83, b'c', b'a', b't', 0x83, b'd', b'o', b'g']);
/// ```
#[derive(Debug, Clone)]
pub struct RlpStream {
    payload: Vec<u8>,
    expected_items: usize,
    appended: usize,
}

impl RlpStream {
    /// Starts a list encoder that expects exactly `items` appends.
    pub fn new_list(items: usize) -> Self {
        Self { payload: Vec::new(), expected_items: items, appended: 0 }
    }

    /// Appends a byte-string item.
    pub fn append_bytes(mut self, bytes: &[u8]) -> Self {
        encode_bytes(bytes, &mut self.payload);
        self.appended += 1;
        self
    }

    /// Appends an unsigned integer in minimal big-endian form.
    pub fn append_u64(self, value: u64) -> Self {
        let be = value.to_be_bytes();
        let first = be.iter().position(|&b| b != 0).unwrap_or(8);
        self.append_bytes(&be[first..])
    }

    /// Appends raw, already-RLP-encoded bytes (e.g. a nested list).
    pub fn append_raw(mut self, raw: &[u8]) -> Self {
        self.payload.extend_from_slice(raw);
        self.appended += 1;
        self
    }

    /// Finishes the stream and returns the encoding.
    ///
    /// # Panics
    ///
    /// Panics if the number of appended items differs from the count given
    /// to [`RlpStream::new_list`]; that is always a programming error.
    pub fn finish(self) -> Vec<u8> {
        assert_eq!(
            self.appended, self.expected_items,
            "rlp list arity mismatch: declared {} items, appended {}",
            self.expected_items, self.appended
        );
        let mut out = Vec::with_capacity(self.payload.len() + 9);
        encode_length(self.payload.len(), 0xc0, &mut out);
        out.extend_from_slice(&self.payload);
        out
    }
}

fn encode_length(len: usize, offset: u8, out: &mut Vec<u8>) {
    if len < 56 {
        out.push(offset + len as u8);
    } else {
        let be = (len as u64).to_be_bytes();
        let first = be.iter().position(|&b| b != 0).unwrap_or(7);
        let len_bytes = &be[first..];
        out.push(offset + 55 + len_bytes.len() as u8);
        out.extend_from_slice(len_bytes);
    }
}

fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    if bytes.len() == 1 && bytes[0] < 0x80 {
        out.push(bytes[0]);
    } else {
        encode_length(bytes.len(), 0x80, out);
        out.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::encode_hex as hex;

    /// Vectors from the Ethereum RLP specification; a string vector sits
    /// inside a one-item list, the only shape the encoder produces.
    #[test]
    fn canonical_examples_from_the_spec() {
        assert_eq!(hex(&RlpStream::new_list(1).append_bytes(b"dog").finish()), "c483646f67");
        assert_eq!(
            hex(&RlpStream::new_list(2).append_bytes(b"cat").append_bytes(b"dog").finish()),
            "c88363617483646f67"
        );
        assert_eq!(hex(&RlpStream::new_list(1).append_bytes(b"").finish()), "c180");
        assert_eq!(hex(&RlpStream::new_list(0).finish()), "c0");
        // A single byte of 0x80 or more needs a string header.
        assert_eq!(hex(&RlpStream::new_list(1).append_bytes(&[0x80]).finish()), "c28180");
    }

    #[test]
    fn integers_are_minimal_big_endian() {
        for (value, expected) in
            [(0, "c180"), (15, "c10f"), (1024, "c3820400"), (u64::MAX, "c988ffffffffffffffff")]
        {
            assert_eq!(hex(&RlpStream::new_list(1).append_u64(value).finish()), expected, "value {value}");
        }
    }

    #[test]
    fn nested_lists_append_raw() {
        // The set-theoretic representation of three: [ [], [[]], [ [], [[]] ] ].
        let zero = RlpStream::new_list(0).finish();
        let one = RlpStream::new_list(1).append_raw(&zero).finish();
        let two = RlpStream::new_list(2).append_raw(&zero).append_raw(&one).finish();
        let three = RlpStream::new_list(3).append_raw(&zero).append_raw(&one).append_raw(&two).finish();
        assert_eq!(hex(&three), "c7c0c1c0c3c0c1c0");
    }

    #[test]
    fn long_string_uses_length_of_length() {
        let text = b"Lorem ipsum dolor sit amet, consectetur adipisicing elit";
        assert_eq!(text.len(), 56);
        let encoded = RlpStream::new_list(1).append_bytes(text).finish();
        assert_eq!(encoded.len(), 60);
        assert_eq!(hex(&encoded[..4]), "f83ab838");
        assert_eq!(&encoded[4..], &text[..]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let _ = RlpStream::new_list(2).append_u64(1).finish();
    }
}
