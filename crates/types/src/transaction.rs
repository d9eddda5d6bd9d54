//! Signed transactions, Ethereum style.
//!
//! A transaction is "a concurrent method call that, if successful, changes
//! the state of the ledger" (paper §II-A). Transactions carry a per-sender
//! `nonce`; miners may order transactions from *different* senders
//! arbitrarily but must preserve nonce order within a sender (§II-C), which
//! is what makes the blockchain sequentially consistent.

use bytes::Bytes;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::rlp::RlpStream;
use sereth_crypto::sig::{SecretKey, Signature};

use crate::u256::U256;

/// The unsigned body of a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxPayload {
    /// Per-sender sequence number; miners must commit in nonce order.
    pub nonce: u64,
    /// Fee offered per unit of gas; standard miners prioritise by this.
    pub gas_price: u64,
    /// Maximum gas the sender will buy.
    pub gas_limit: u64,
    /// Callee; `None` creates a contract.
    pub to: Option<Address>,
    /// Wei transferred with the call.
    pub value: U256,
    /// Calldata: function selector plus ABI-encoded arguments. For Sereth
    /// transactions this holds the FPV triple (§III-C).
    pub input: Bytes,
}

impl TxPayload {
    /// Canonical RLP encoding of the unsigned payload.
    pub fn rlp_encode(&self) -> Vec<u8> {
        let to_bytes: &[u8] = match &self.to {
            Some(address) => address.as_bytes(),
            None => &[],
        };
        RlpStream::new_list(6)
            .append_u64(self.nonce)
            .append_u64(self.gas_price)
            .append_u64(self.gas_limit)
            .append_bytes(to_bytes)
            .append_bytes(&self.value.to_be_bytes())
            .append_bytes(&self.input)
            .finish()
    }

    /// The digest a sender signs: keccak of the canonical payload encoding.
    fn sighash(&self) -> H256 {
        H256::keccak(&self.rlp_encode())
    }
}

/// A signed transaction as gossiped on the network and stored in blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    payload: TxPayload,
    sender: Address,
    signature: Signature,
    hash: H256,
}

impl Transaction {
    /// Signs `payload` with `key`, producing a sealed transaction.
    pub fn sign(payload: TxPayload, key: &SecretKey) -> Self {
        let sighash = payload.sighash();
        let signature = key.sign(sighash);
        let sender = key.address();
        let hash = Self::compute_hash(&payload, &sender, &signature);
        Self { payload, sender, signature, hash }
    }

    /// Reassembles a transaction from parts (used by decoders and by the
    /// tamper-injection tests). The hash is recomputed; validity is **not**
    /// checked — call [`Transaction::verify_signature`] for that.
    pub fn from_parts(payload: TxPayload, sender: Address, signature: Signature) -> Self {
        let hash = Self::compute_hash(&payload, &sender, &signature);
        Self { payload, sender, signature, hash }
    }

    fn compute_hash(payload: &TxPayload, sender: &Address, signature: &Signature) -> H256 {
        let encoded = RlpStream::new_list(3)
            .append_bytes(&payload.rlp_encode())
            .append_bytes(sender.as_bytes())
            .append_bytes(signature.tag().as_bytes())
            .finish();
        H256::keccak(&encoded)
    }

    /// The unsigned payload.
    pub fn payload(&self) -> &TxPayload {
        &self.payload
    }

    /// The sender address the transaction claims.
    pub fn sender(&self) -> Address {
        self.sender
    }

    /// Per-sender nonce.
    pub fn nonce(&self) -> u64 {
        self.payload.nonce
    }

    /// Offered gas price.
    pub fn gas_price(&self) -> u64 {
        self.payload.gas_price
    }

    /// Gas limit.
    pub fn gas_limit(&self) -> u64 {
        self.payload.gas_limit
    }

    /// Callee address, or `None` for contract creation.
    pub fn to(&self) -> Option<Address> {
        self.payload.to
    }

    /// Transferred value.
    pub fn value(&self) -> U256 {
        self.payload.value
    }

    /// Calldata.
    pub fn input(&self) -> &Bytes {
        &self.payload.input
    }

    /// The signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Cached transaction hash (keccak over payload, sender, signature).
    pub fn hash(&self) -> H256 {
        self.hash
    }

    /// Verifies that the signature matches the payload and sender. Block
    /// validators run this during replay; it is what catches transactions
    /// whose calldata was mutated after signing (the paper's RAA tampering
    /// experiment, §III-D).
    pub fn verify_signature(&self) -> bool {
        self.signature.verify(&self.sender, self.payload.sighash())
    }

    /// Returns a copy with different calldata but the *original* signature —
    /// exactly what a malicious client attempting post-signing RAA would
    /// produce. Such a transaction fails [`Transaction::verify_signature`].
    pub fn with_tampered_input(&self, input: Bytes) -> Self {
        let mut payload = self.payload.clone();
        payload.input = input;
        Self::from_parts(payload, self.sender, self.signature.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sereth_crypto::hash::encode_hex as hex;

    fn sample_payload(nonce: u64) -> TxPayload {
        TxPayload {
            nonce,
            gas_price: 20,
            gas_limit: 100_000,
            to: Some(Address::from_low_u64(0xc0ffee)),
            value: U256::from(7u64),
            input: Bytes::from_static(b"\x01\x02\x03\x04hello"),
        }
    }

    /// A six-item list: nonce, gas price, gas limit, the 20-byte callee
    /// (empty for a creation), the 32-byte value and the calldata.
    #[test]
    fn payload_rlp_encoding_is_pinned() {
        let payload = sample_payload(3);
        assert_eq!(
            hex(&payload.rlp_encode()),
            "f8460314830186a0940000000000000000000000000000000000c0ffee\
             a00000000000000000000000000000000000000000000000000000000000000007\
             890102030468656c6c6f"
        );
        let creation = TxPayload { to: None, ..payload };
        assert_eq!(
            hex(&creation.rlp_encode()),
            "f20314830186a080\
             a00000000000000000000000000000000000000000000000000000000000000007\
             890102030468656c6c6f"
        );
    }

    #[test]
    fn sighash_is_pinned() {
        assert_eq!(
            sample_payload(3).sighash().to_hex(),
            "0x323743053d1fe75d46ad1c75e145342e9da010028d343f29a29181b3a720d0f2"
        );
    }

    #[test]
    fn signed_transaction_verifies() {
        let key = SecretKey::from_label(11);
        let tx = Transaction::sign(sample_payload(0), &key);
        assert!(tx.verify_signature());
        assert_eq!(tx.sender(), key.address());
    }

    #[test]
    fn tampered_input_fails_verification() {
        let key = SecretKey::from_label(11);
        let tx = Transaction::sign(sample_payload(0), &key);
        let tampered = tx.with_tampered_input(Bytes::from_static(b"evil"));
        assert!(!tampered.verify_signature());
        assert_ne!(tampered.hash(), tx.hash());
    }

    #[test]
    fn hash_distinguishes_nonces() {
        let key = SecretKey::from_label(5);
        let a = Transaction::sign(sample_payload(0), &key);
        let b = Transaction::sign(sample_payload(1), &key);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn hash_distinguishes_senders() {
        let a = Transaction::sign(sample_payload(0), &SecretKey::from_label(1));
        let b = Transaction::sign(sample_payload(0), &SecretKey::from_label(2));
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn sighash_ignores_signature() {
        let payload = sample_payload(9);
        let sig_a = Transaction::sign(payload.clone(), &SecretKey::from_label(1));
        let sig_b = Transaction::sign(payload.clone(), &SecretKey::from_label(2));
        assert_eq!(sig_a.payload().sighash(), sig_b.payload().sighash());
        assert_eq!(payload.sighash(), sig_a.payload().sighash());
    }
}
