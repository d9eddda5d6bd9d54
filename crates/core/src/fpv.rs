//! The FPV triple — `(flag, previous_mark, value)` — carried in every
//! Sereth transaction's calldata, and the flags that drive Hash-Mark-Set
//! filtering (paper §III-C and Algorithm 2).

use sereth_crypto::hash::H256;
use sereth_vm::abi;

/// Flag word marking a **head candidate**: "one of the first HMS
/// transactions that appeared during the current block … it or another
/// transaction with the same flag will serve as the head of the serialized
/// list" (paper §III-C). The sender saw no pending series and chained onto
/// the *committed* contract mark.
pub const HEAD_FLAG: H256 = H256::new(head_flag_bytes());

/// Flag word marking a successor: "at the time of the transaction's
/// submission, it was found to be the successor to the current tail of the
/// series" (paper §III-C).
pub const SUCCESS_FLAG: H256 = H256::new(success_flag_bytes());

/// Selector of the Sereth contract's managed write, `set(bytes32[3])`:
/// the SIGNATURE Algorithm 2 filters the pool for.
pub const SET_SELECTOR: abi::Selector = [0xd1, 0x60, 0x27, 0x37];

/// Selector of the Sereth contract's dependent read, `buy(bytes32[3])`,
/// whose offer words name the mark interval it was built against.
pub const BUY_SELECTOR: abi::Selector = [0x3f, 0x91, 0xe2, 0x38];

/// Log topic the Sereth contract emits when a `set` takes effect:
/// `keccak("SetOk(bytes32)")`.
pub const SET_OK_TOPIC: H256 = H256::new([
    0xbc, 0xaa, 0xc1, 0x06, 0x64, 0xac, 0x77, 0x3d, 0x8f, 0x2f, 0x15, 0x8b, 0xe6, 0xfd, 0x1e, 0x73, 0x50,
    0x24, 0x21, 0x80, 0xe9, 0xbe, 0x42, 0x47, 0x38, 0x4c, 0x70, 0x14, 0x19, 0xeb, 0x81, 0x5e,
]);

/// Log topic the Sereth contract emits when a `buy` takes effect:
/// `keccak("BuyOk(bytes32)")`.
pub const BUY_OK_TOPIC: H256 = H256::new([
    0x5c, 0x4f, 0xfb, 0x6d, 0x07, 0x38, 0x94, 0xaa, 0x77, 0x0e, 0xe8, 0x39, 0xc5, 0xc3, 0xea, 0x0c, 0x87,
    0x35, 0x02, 0x2b, 0x51, 0x83, 0x60, 0x02, 0x43, 0x65, 0x1f, 0x50, 0x22, 0x52, 0x4a, 0xb3,
]);

/// The sentinel Algorithm 1 writes into the RAA words when the filtered
/// transaction list is empty (line 1:5, `RAA ← specialValue`): it tells the
/// caller the view was served from *committed* state and a new transaction
/// should carry [`HEAD_FLAG`].
pub const SPECIAL_VALUE: H256 = HEAD_FLAG;

const fn head_flag_bytes() -> [u8; 32] {
    let mut bytes = [0u8; 32];
    // ASCII "HMS-HEAD" in the leading bytes keeps traces readable.
    let tag = *b"HMS-HEAD";
    let mut i = 0;
    while i < tag.len() {
        bytes[i] = tag[i];
        i += 1;
    }
    bytes
}

const fn success_flag_bytes() -> [u8; 32] {
    let mut bytes = [0u8; 32];
    let tag = *b"HMS-SUCC";
    let mut i = 0;
    while i < tag.len() {
        bytes[i] = tag[i];
        i += 1;
    }
    bytes
}

/// Parsed flag semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flag {
    /// Head candidate — chains onto the committed mark.
    Head,
    /// Successor — chains onto a pooled transaction's mark.
    Success,
    /// Anything else: "it is considered rejected and is not included in the
    /// list of relevant transactions" (paper §III-C).
    Rejected,
}

impl Flag {
    /// Classifies a raw flag word.
    pub fn classify(word: &H256) -> Self {
        if *word == HEAD_FLAG {
            Self::Head
        } else if *word == SUCCESS_FLAG {
            Self::Success
        } else {
            Self::Rejected
        }
    }

    /// The canonical word for this flag.
    ///
    /// # Panics
    ///
    /// Panics for [`Flag::Rejected`], which has no canonical encoding.
    pub fn to_word(self) -> H256 {
        match self {
            Self::Head => HEAD_FLAG,
            Self::Success => SUCCESS_FLAG,
            Self::Rejected => panic!("rejected flags have no canonical word"),
        }
    }

    /// `true` for flags Algorithm 2's `SUCCESS` predicate accepts.
    pub fn is_accepted(self) -> bool {
        matches!(self, Self::Head | Self::Success)
    }
}

/// The decoded FPV triple of a Sereth transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fpv {
    /// The raw flag word (word 0 of the arguments).
    pub flag_word: H256,
    /// The mark of the intended predecessor (word 1).
    pub prev_mark: H256,
    /// The value being written — e.g. the new price (word 2).
    pub value: H256,
}

impl Fpv {
    /// Builds an FPV with a canonical flag.
    pub fn new(flag: Flag, prev_mark: H256, value: H256) -> Self {
        Self { flag_word: flag.to_word(), prev_mark, value }
    }

    /// The parsed flag.
    pub fn flag(&self) -> Flag {
        Flag::classify(&self.flag_word)
    }

    /// The three argument words, in ABI order.
    pub fn to_words(&self) -> [H256; 3] {
        [self.flag_word, self.prev_mark, self.value]
    }

    /// Decodes the FPV from calldata (`selector ++ flag ++ prev_mark ++
    /// value`). "Each element is stored in a contiguous 32 bytes within
    /// input" (paper §III-C).
    pub fn from_calldata(calldata: &[u8]) -> Option<Self> {
        let flag_word = abi::arg_word(calldata, 0)?;
        let prev_mark = abi::arg_word(calldata, 1)?;
        let value = abi::arg_word(calldata, 2)?;
        Some(Self { flag_word, prev_mark, value })
    }

    /// Encodes calldata invoking `selector` with this FPV.
    pub fn to_calldata(&self, selector: abi::Selector) -> bytes::Bytes {
        abi::encode_call(selector, &self.to_words())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_are_distinct_and_nonzero() {
        assert_ne!(HEAD_FLAG, SUCCESS_FLAG);
        assert!(!HEAD_FLAG.is_zero());
        assert!(!SUCCESS_FLAG.is_zero());
    }

    #[test]
    fn classify_round_trips() {
        assert_eq!(Flag::classify(&HEAD_FLAG), Flag::Head);
        assert_eq!(Flag::classify(&SUCCESS_FLAG), Flag::Success);
        assert_eq!(Flag::classify(&H256::from_low_u64(123)), Flag::Rejected);
        assert_eq!(Flag::Head.to_word(), HEAD_FLAG);
        assert_eq!(Flag::Success.to_word(), SUCCESS_FLAG);
    }

    #[test]
    fn acceptance_predicate_matches_algorithm_2() {
        assert!(Flag::Head.is_accepted());
        assert!(Flag::Success.is_accepted());
        assert!(!Flag::Rejected.is_accepted());
    }

    #[test]
    #[should_panic(expected = "no canonical word")]
    fn rejected_has_no_word() {
        let _ = Flag::Rejected.to_word();
    }

    #[test]
    fn market_selectors_are_the_signature_hashes() {
        assert_eq!(SET_SELECTOR, abi::selector("set(bytes32[3])"));
        assert_eq!(BUY_SELECTOR, abi::selector("buy(bytes32[3])"));
    }

    #[test]
    fn calldata_round_trip() {
        let fpv = Fpv::new(Flag::Success, H256::keccak(b"prev"), H256::from_low_u64(5));
        let calldata = fpv.to_calldata(abi::selector("set(bytes32[3])"));
        assert_eq!(Fpv::from_calldata(&calldata), Some(fpv));
    }

    #[test]
    fn truncated_calldata_is_none() {
        let fpv = Fpv::new(Flag::Head, H256::ZERO, H256::ZERO);
        let calldata = fpv.to_calldata(abi::selector("set(bytes32[3])"));
        assert_eq!(Fpv::from_calldata(&calldata[..calldata.len() - 1]), None);
    }
}
