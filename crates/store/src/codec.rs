//! Binary codec for the durable store's record payloads.
//!
//! Records hold full blocks (so a recovered node keeps serving
//! `block_by_hash` to its peers), their receipts, and per-block account
//! *write-sets* — post-images of every account the block touched — so
//! recovery re-applies writes instead of re-executing transactions.
//!
//! The encoding is deliberately plain: little-endian fixed-width integers
//! and length-prefixed byte strings, with a leading format tag per record
//! kind. Canonicality does not matter here the way it does for RLP — the
//! commitments these bytes reconstruct (`state_root`, block hashes) are
//! recomputed and checked after decoding, so the codec only has to be
//! unambiguous, not unique.

use bytes::Bytes;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::{PublicKey, Signature};
use sereth_types::block::{Block, BlockHeader};
use sereth_types::receipt::{Log, Receipt, TxStatus};
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

use crate::StoreError;

/// Format tag opening every journal (block) record payload.
pub const BLOCK_RECORD_TAG: u8 = 0xB1;
/// Format tag opening every snapshot record payload.
pub const SNAPSHOT_RECORD_TAG: u8 = 0x51;

/// Contract code as persisted. Native contracts are Rust objects and
/// cannot be serialized; they are recorded by their stable name and
/// re-resolved at recovery against the genesis state (the only place
/// native code is ever installed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeRecord {
    /// No code (an externally-owned account).
    None,
    /// EVM-subset bytecode, stored verbatim.
    Bytecode(Bytes),
    /// A native contract, stored by [`name`](CodeRecord::Native).
    Native(String),
}

/// One account's persisted post-image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountRecord {
    /// Transactions sent from this account.
    pub nonce: u64,
    /// Balance in wei.
    pub balance: U256,
    /// Executable code, if any.
    pub code: CodeRecord,
    /// Non-zero storage slots, address-ordered.
    pub storage: Vec<(H256, H256)>,
}

/// One journal entry: a block, its receipts, and its account write-set
/// relative to the parent's post-state (`None` = account absent after the
/// block — a tombstone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRecord {
    /// The imported block, transactions included.
    pub block: Block,
    /// Receipts from validation replay.
    pub receipts: Vec<Receipt>,
    /// Post-images of every account the block changed, address-ordered.
    pub writes: Vec<(Address, Option<AccountRecord>)>,
}

/// A full checkpoint of the canonical chain at one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRecord {
    /// Hash of the genesis block — recovery refuses data from a
    /// different chain.
    pub genesis_hash: H256,
    /// Canonical height this snapshot freezes.
    pub epoch: u64,
    /// The canonical block at `epoch`.
    pub block: Block,
    /// That block's receipts.
    pub receipts: Vec<Receipt>,
    /// The full canonical hash list `[genesis..=epoch]`, height-indexed.
    pub canonical: Vec<H256>,
    /// Every account at `epoch`, address-ordered.
    pub accounts: Vec<(Address, AccountRecord)>,
}

/// Sequential byte writer for record payloads.
#[derive(Debug, Default)]
struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    fn put_h256(&mut self, value: &H256) {
        self.buf.extend_from_slice(value.as_bytes());
    }

    fn put_address(&mut self, value: &Address) {
        self.buf.extend_from_slice(value.as_bytes());
    }

    fn put_u256(&mut self, value: &U256) {
        self.buf.extend_from_slice(&value.to_be_bytes());
    }

    fn put_bytes(&mut self, value: &[u8]) {
        self.put_u32(value.len() as u32);
        self.buf.extend_from_slice(value);
    }
}

/// Sequential byte reader for record payloads.
#[derive(Debug)]
struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Reads from the front of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Fails unless every byte was consumed.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(StoreError::corrupt("trailing bytes after record"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.data.len());
        let end = end.ok_or_else(|| StoreError::corrupt("record payload truncated"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    fn take_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    fn take_h256(&mut self) -> Result<H256, StoreError> {
        let mut out = [0u8; 32];
        out.copy_from_slice(self.take(32)?);
        Ok(H256::new(out))
    }

    fn take_address(&mut self) -> Result<Address, StoreError> {
        Address::from_slice(self.take(20)?).map_err(|_| StoreError::corrupt("bad address"))
    }

    fn take_u256(&mut self) -> Result<U256, StoreError> {
        let mut out = [0u8; 32];
        out.copy_from_slice(self.take(32)?);
        Ok(U256::from_be_bytes(out))
    }

    fn take_bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.take_u32()? as usize;
        self.take(len)
    }

    /// A length prefix for a repeated structure, sanity-bounded so a
    /// corrupt count cannot drive a huge allocation (every element is at
    /// least one byte).
    fn take_count(&mut self) -> Result<usize, StoreError> {
        let count = self.take_u32()? as usize;
        if count > self.data.len() - self.pos {
            return Err(StoreError::corrupt("implausible element count"));
        }
        Ok(count)
    }
}

fn put_tx(e: &mut Encoder, tx: &Transaction) {
    let payload = tx.payload();
    e.put_u64(payload.nonce);
    e.put_u64(payload.gas_price);
    e.put_u64(payload.gas_limit);
    match &payload.to {
        Some(to) => {
            e.put_u8(1);
            e.put_address(to);
        }
        None => e.put_u8(0),
    }
    e.put_u256(&payload.value);
    e.put_bytes(&payload.input);
    e.put_address(&tx.sender());
    let signature = tx.signature();
    e.put_h256(signature.pubkey().as_h256());
    e.put_h256(&signature.signed_digest());
    e.put_h256(&signature.tag());
}

fn take_tx(d: &mut Decoder<'_>) -> Result<Transaction, StoreError> {
    let nonce = d.take_u64()?;
    let gas_price = d.take_u64()?;
    let gas_limit = d.take_u64()?;
    let to = match d.take_u8()? {
        0 => None,
        1 => Some(d.take_address()?),
        _ => return Err(StoreError::corrupt("bad callee tag")),
    };
    let value = d.take_u256()?;
    let input = Bytes::copy_from_slice(d.take_bytes()?);
    let payload = TxPayload { nonce, gas_price, gas_limit, to, value, input };
    let sender = d.take_address()?;
    let pubkey = PublicKey::from_h256(d.take_h256()?);
    let signed_digest = d.take_h256()?;
    let tag = d.take_h256()?;
    Ok(Transaction::from_parts(payload, sender, Signature::from_parts(pubkey, signed_digest, tag)))
}

fn put_header(e: &mut Encoder, header: &BlockHeader) {
    e.put_h256(&header.parent_hash);
    e.put_u64(header.number);
    e.put_u64(header.timestamp_ms);
    e.put_address(&header.miner);
    e.put_h256(&header.state_root);
    e.put_h256(&header.tx_root);
    e.put_h256(&header.receipts_root);
    e.put_u64(header.gas_used);
    e.put_u64(header.gas_limit);
}

fn take_header(d: &mut Decoder<'_>) -> Result<BlockHeader, StoreError> {
    Ok(BlockHeader {
        parent_hash: d.take_h256()?,
        number: d.take_u64()?,
        timestamp_ms: d.take_u64()?,
        miner: d.take_address()?,
        state_root: d.take_h256()?,
        tx_root: d.take_h256()?,
        receipts_root: d.take_h256()?,
        gas_used: d.take_u64()?,
        gas_limit: d.take_u64()?,
    })
}

fn put_block(e: &mut Encoder, block: &Block) {
    put_header(e, &block.header);
    e.put_u32(block.transactions.len() as u32);
    for tx in &block.transactions {
        put_tx(e, tx);
    }
}

fn take_block(d: &mut Decoder<'_>) -> Result<Block, StoreError> {
    let header = take_header(d)?;
    let count = d.take_count()?;
    let mut transactions = Vec::with_capacity(count);
    for _ in 0..count {
        transactions.push(take_tx(d)?);
    }
    Ok(Block { header, transactions })
}

fn put_receipt(e: &mut Encoder, receipt: &Receipt) {
    e.put_h256(&receipt.tx_hash);
    e.put_u32(receipt.index);
    e.put_u8(match receipt.status {
        TxStatus::Success => 1,
        TxStatus::Reverted => 0,
        TxStatus::OutOfGas => 2,
    });
    e.put_u64(receipt.gas_used);
    e.put_u32(receipt.logs.len() as u32);
    for log in &receipt.logs {
        e.put_address(&log.address);
        e.put_u32(log.topics.len() as u32);
        for topic in &log.topics {
            e.put_h256(topic);
        }
        e.put_bytes(&log.data);
    }
}

fn take_receipt(d: &mut Decoder<'_>) -> Result<Receipt, StoreError> {
    let tx_hash = d.take_h256()?;
    let index = d.take_u32()?;
    let status = match d.take_u8()? {
        1 => TxStatus::Success,
        0 => TxStatus::Reverted,
        2 => TxStatus::OutOfGas,
        _ => return Err(StoreError::corrupt("bad receipt status")),
    };
    let gas_used = d.take_u64()?;
    let log_count = d.take_count()?;
    let mut logs = Vec::with_capacity(log_count);
    for _ in 0..log_count {
        let address = d.take_address()?;
        let topic_count = d.take_count()?;
        let mut topics = Vec::with_capacity(topic_count);
        for _ in 0..topic_count {
            topics.push(d.take_h256()?);
        }
        let data = Bytes::copy_from_slice(d.take_bytes()?);
        logs.push(Log { address, topics, data });
    }
    Ok(Receipt { tx_hash, index, status, gas_used, logs })
}

fn put_code(e: &mut Encoder, code: &CodeRecord) {
    match code {
        CodeRecord::None => e.put_u8(0),
        CodeRecord::Bytecode(bytecode) => {
            e.put_u8(1);
            e.put_bytes(bytecode);
        }
        CodeRecord::Native(name) => {
            e.put_u8(2);
            e.put_bytes(name.as_bytes());
        }
    }
}

fn take_code(d: &mut Decoder<'_>) -> Result<CodeRecord, StoreError> {
    match d.take_u8()? {
        0 => Ok(CodeRecord::None),
        1 => Ok(CodeRecord::Bytecode(Bytes::copy_from_slice(d.take_bytes()?))),
        2 => {
            let name = std::str::from_utf8(d.take_bytes()?)
                .map_err(|_| StoreError::corrupt("bad native contract name"))?;
            Ok(CodeRecord::Native(name.to_string()))
        }
        _ => Err(StoreError::corrupt("bad code tag")),
    }
}

fn put_account(e: &mut Encoder, account: &AccountRecord) {
    e.put_u64(account.nonce);
    e.put_u256(&account.balance);
    put_code(e, &account.code);
    e.put_u32(account.storage.len() as u32);
    for (key, value) in &account.storage {
        e.put_h256(key);
        e.put_h256(value);
    }
}

fn take_account(d: &mut Decoder<'_>) -> Result<AccountRecord, StoreError> {
    let nonce = d.take_u64()?;
    let balance = d.take_u256()?;
    let code = take_code(d)?;
    let slot_count = d.take_count()?;
    let mut storage = Vec::with_capacity(slot_count);
    for _ in 0..slot_count {
        storage.push((d.take_h256()?, d.take_h256()?));
    }
    Ok(AccountRecord { nonce, balance, code, storage })
}

impl BlockRecord {
    /// Encodes this record as one journal payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(BLOCK_RECORD_TAG);
        put_block(&mut e, &self.block);
        e.put_u32(self.receipts.len() as u32);
        for receipt in &self.receipts {
            put_receipt(&mut e, receipt);
        }
        e.put_u32(self.writes.len() as u32);
        for (address, post) in &self.writes {
            e.put_address(address);
            match post {
                Some(account) => {
                    e.put_u8(1);
                    put_account(&mut e, account);
                }
                None => e.put_u8(0),
            }
        }
        e.finish()
    }

    /// Decodes a payload produced by [`BlockRecord::encode`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on any malformed byte.
    pub fn decode(payload: &[u8]) -> Result<Self, StoreError> {
        let mut d = Decoder::new(payload);
        if d.take_u8()? != BLOCK_RECORD_TAG {
            return Err(StoreError::corrupt("not a block record"));
        }
        let block = take_block(&mut d)?;
        let receipt_count = d.take_count()?;
        let mut receipts = Vec::with_capacity(receipt_count);
        for _ in 0..receipt_count {
            receipts.push(take_receipt(&mut d)?);
        }
        let write_count = d.take_count()?;
        let mut writes = Vec::with_capacity(write_count);
        for _ in 0..write_count {
            let address = d.take_address()?;
            let post = match d.take_u8()? {
                0 => None,
                1 => Some(take_account(&mut d)?),
                _ => return Err(StoreError::corrupt("bad write tag")),
            };
            writes.push((address, post));
        }
        d.finish()?;
        Ok(Self { block, receipts, writes })
    }

    /// The epoch (block height) this record belongs to.
    pub fn epoch(&self) -> u64 {
        self.block.number()
    }
}

impl SnapshotRecord {
    /// Encodes this snapshot as one record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(SNAPSHOT_RECORD_TAG);
        e.put_h256(&self.genesis_hash);
        e.put_u64(self.epoch);
        put_block(&mut e, &self.block);
        e.put_u32(self.receipts.len() as u32);
        for receipt in &self.receipts {
            put_receipt(&mut e, receipt);
        }
        e.put_u32(self.canonical.len() as u32);
        for hash in &self.canonical {
            e.put_h256(hash);
        }
        e.put_u64(self.accounts.len() as u64);
        for (address, account) in &self.accounts {
            e.put_address(address);
            put_account(&mut e, account);
        }
        e.finish()
    }

    /// Decodes a payload produced by [`SnapshotRecord::encode`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on any malformed byte.
    pub fn decode(payload: &[u8]) -> Result<Self, StoreError> {
        let mut d = Decoder::new(payload);
        if d.take_u8()? != SNAPSHOT_RECORD_TAG {
            return Err(StoreError::corrupt("not a snapshot record"));
        }
        let genesis_hash = d.take_h256()?;
        let epoch = d.take_u64()?;
        let block = take_block(&mut d)?;
        let receipt_count = d.take_count()?;
        let mut receipts = Vec::with_capacity(receipt_count);
        for _ in 0..receipt_count {
            receipts.push(take_receipt(&mut d)?);
        }
        let canonical_count = d.take_count()?;
        let mut canonical = Vec::with_capacity(canonical_count);
        for _ in 0..canonical_count {
            canonical.push(d.take_h256()?);
        }
        let account_count = d.take_u64()? as usize;
        let mut accounts = Vec::with_capacity(account_count.min(1 << 20));
        for _ in 0..account_count {
            let address = d.take_address()?;
            accounts.push((address, take_account(&mut d)?));
        }
        d.finish()?;
        Ok(Self { genesis_hash, epoch, block, receipts, canonical, accounts })
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! Minimal fixtures shared by this crate's unit tests.

    use super::*;

    fn tiny_block(epoch: u64) -> Block {
        Block {
            header: BlockHeader {
                parent_hash: H256::from_low_u64(epoch.wrapping_sub(1)),
                number: epoch,
                timestamp_ms: epoch * 1000,
                miner: Address::from_low_u64(1),
                state_root: H256::from_low_u64(epoch + 100),
                tx_root: Block::compute_tx_root(&[]),
                receipts_root: Block::compute_receipts_root(&[]),
                gas_used: 0,
                gas_limit: 8_000_000,
            },
            transactions: vec![],
        }
    }

    pub(crate) fn tiny_block_record(epoch: u64) -> BlockRecord {
        BlockRecord {
            block: tiny_block(epoch),
            receipts: vec![],
            writes: vec![(
                Address::from_low_u64(epoch),
                Some(AccountRecord {
                    nonce: epoch,
                    balance: U256::from(epoch),
                    code: CodeRecord::None,
                    storage: vec![],
                }),
            )],
        }
    }

    pub(crate) fn tiny_snapshot(epoch: u64) -> SnapshotRecord {
        SnapshotRecord {
            genesis_hash: H256::from_low_u64(900),
            epoch,
            block: tiny_block(epoch),
            receipts: vec![],
            canonical: (0..=epoch).map(H256::from_low_u64).collect(),
            accounts: vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sereth_crypto::sig::SecretKey;

    fn sample_tx(label: u64, nonce: u64) -> Transaction {
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 3,
                gas_limit: 60_000,
                to: label.is_multiple_of(2).then(|| Address::from_low_u64(label)),
                value: U256::from(17u64 + label),
                input: Bytes::from(vec![0xab; label as usize % 5]),
            },
            &SecretKey::from_label(label),
        )
    }

    fn sample_block() -> Block {
        let transactions = vec![sample_tx(1, 0), sample_tx(2, 4)];
        let header = BlockHeader {
            parent_hash: H256::keccak(b"parent"),
            number: 9,
            timestamp_ms: 1234,
            miner: Address::from_low_u64(77),
            state_root: H256::keccak(b"state"),
            tx_root: Block::compute_tx_root(&transactions),
            receipts_root: H256::keccak(b"receipts"),
            gas_used: 42_000,
            gas_limit: 8_000_000,
        };
        Block { header, transactions }
    }

    fn sample_record() -> BlockRecord {
        let block = sample_block();
        let receipts = vec![Receipt {
            tx_hash: block.transactions[0].hash(),
            index: 0,
            status: TxStatus::Success,
            gas_used: 21_000,
            logs: vec![Log {
                address: Address::from_low_u64(5),
                topics: vec![H256::keccak(b"SetOk")],
                data: Bytes::from_static(&[1, 2, 3]),
            }],
        }];
        let writes = vec![
            (
                Address::from_low_u64(1),
                Some(AccountRecord {
                    nonce: 1,
                    balance: U256::from(500u64),
                    code: CodeRecord::Bytecode(Bytes::from_static(&[0x60, 0x00])),
                    storage: vec![(H256::from_low_u64(1), H256::from_low_u64(9))],
                }),
            ),
            (Address::from_low_u64(2), None),
            (
                Address::from_low_u64(3),
                Some(AccountRecord {
                    nonce: 0,
                    balance: U256::ZERO,
                    code: CodeRecord::Native("market".to_string()),
                    storage: vec![],
                }),
            ),
        ];
        BlockRecord { block, receipts, writes }
    }

    #[test]
    fn block_record_round_trips() {
        let record = sample_record();
        let decoded = BlockRecord::decode(&record.encode()).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(decoded.block.hash(), record.block.hash(), "hash survives the codec");
        assert!(decoded.block.transactions[0].verify_signature(), "signatures survive the codec");
        assert_eq!(decoded.epoch(), 9);
    }

    #[test]
    fn snapshot_record_round_trips() {
        let record = sample_record();
        let snapshot = SnapshotRecord {
            genesis_hash: H256::keccak(b"genesis"),
            epoch: 9,
            block: record.block.clone(),
            receipts: record.receipts.clone(),
            canonical: (0..10).map(H256::from_low_u64).collect(),
            accounts: record
                .writes
                .iter()
                .filter_map(|(address, post)| post.clone().map(|account| (*address, account)))
                .collect(),
        };
        let decoded = SnapshotRecord::decode(&snapshot.encode()).unwrap();
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn truncated_or_tampered_payloads_error_instead_of_panicking() {
        let encoded = sample_record().encode();
        for cut in 0..encoded.len() {
            assert!(BlockRecord::decode(&encoded[..cut]).is_err(), "cut at {cut}");
        }
        let mut wrong_tag = encoded.clone();
        wrong_tag[0] = SNAPSHOT_RECORD_TAG;
        assert!(BlockRecord::decode(&wrong_tag).is_err());
        let mut trailing = encoded;
        trailing.push(0);
        assert!(BlockRecord::decode(&trailing).is_err());
    }
}
