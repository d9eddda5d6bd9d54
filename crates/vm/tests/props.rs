//! Property tests for the interpreter: no input — honest, adversarial, or
//! random — may panic, hang, or corrupt the machine's invariants.

use bytes::Bytes;
use proptest::prelude::*;
use sereth_crypto::address::Address;
use sereth_types::receipt::TxStatus;
use sereth_types::u256::U256;
use sereth_vm::asm::{assemble, disassemble};
use sereth_vm::exec::{CallEnv, MemStorage};
use sereth_vm::interpreter::execute;
use sereth_vm::opcode::Opcode;

fn env_with(calldata: Vec<u8>) -> CallEnv {
    CallEnv::test_env(Address::from_low_u64(1), Address::from_low_u64(2), Bytes::from(calldata))
}

proptest! {
    /// Arbitrary byte soup as code: execution terminates with a defined
    /// status and never panics. Gas bounds the work.
    #[test]
    fn random_code_never_panics(code in proptest::collection::vec(any::<u8>(), 0..512),
                                calldata in proptest::collection::vec(any::<u8>(), 0..128)) {
        let env = env_with(calldata);
        let mut storage = MemStorage::new();
        let outcome = execute(&code, &env, &mut storage, 200_000);
        prop_assert!(outcome.gas_used <= 200_000);
    }

    /// A pure stack program computing (a + b) via the interpreter matches
    /// U256 arithmetic.
    #[test]
    fn add_program_matches_u256(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let a_hex: String = a.iter().map(|x| format!("{x:02x}")).collect();
        let b_hex: String = b.iter().map(|x| format!("{x:02x}")).collect();
        let source = format!(
            "PUSH32 0x{b_hex}\nPUSH32 0x{a_hex}\nADD\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN"
        );
        let code = assemble(&source).unwrap();
        let env = env_with(vec![]);
        let mut storage = MemStorage::new();
        let outcome = execute(&code, &env, &mut storage, 1_000_000);
        prop_assert_eq!(outcome.status, TxStatus::Success);
        let expected = U256::from_be_bytes(a) + U256::from_be_bytes(b);
        let mut word = [0u8; 32];
        word.copy_from_slice(&outcome.return_data);
        prop_assert_eq!(U256::from_be_bytes(word), expected);
    }

    /// Same for multiplication and subtraction (wrapping semantics).
    #[test]
    fn mul_sub_programs_match_u256(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        for (op, oracle) in [
            ("MUL", U256::from_be_bytes(a) * U256::from_be_bytes(b)),
            ("SUB", U256::from_be_bytes(a) - U256::from_be_bytes(b)),
        ] {
            let a_hex: String = a.iter().map(|x| format!("{x:02x}")).collect();
            let b_hex: String = b.iter().map(|x| format!("{x:02x}")).collect();
            let source = format!(
                "PUSH32 0x{b_hex}\nPUSH32 0x{a_hex}\n{op}\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN"
            );
            let code = assemble(&source).unwrap();
            let env = env_with(vec![]);
            let mut storage = MemStorage::new();
            let outcome = execute(&code, &env, &mut storage, 1_000_000);
            prop_assert_eq!(outcome.status, TxStatus::Success, "{}", op);
            let mut word = [0u8; 32];
            word.copy_from_slice(&outcome.return_data);
            prop_assert_eq!(U256::from_be_bytes(word), oracle, "{}", op);
        }
    }

    /// CALLDATALOAD agrees with direct inspection for arbitrary offsets,
    /// including out-of-range (zero padding).
    #[test]
    fn calldataload_pads_correctly(calldata in proptest::collection::vec(any::<u8>(), 0..96),
                                   offset in 0usize..128) {
        let source = format!(
            "PUSH2 0x{offset:04x}\nCALLDATALOAD\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN"
        );
        let code = assemble(&source).unwrap();
        let env = env_with(calldata.clone());
        let mut storage = MemStorage::new();
        let outcome = execute(&code, &env, &mut storage, 1_000_000);
        prop_assert_eq!(outcome.status, TxStatus::Success);
        let mut expected = [0u8; 32];
        for (i, slot) in expected.iter_mut().enumerate() {
            *slot = calldata.get(offset + i).copied().unwrap_or(0);
        }
        prop_assert_eq!(&outcome.return_data[..], &expected[..]);
    }

    /// Disassembling arbitrary bytes never panics, emits one line per
    /// decoded instruction, and marks unsupported *instruction* bytes
    /// (i.e. bytes not consumed as push immediates) as data.
    #[test]
    fn disassemble_total(code in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = disassemble(&code);
        if code.is_empty() {
            prop_assert!(text.is_empty());
            return Ok(());
        }
        prop_assert!(text.lines().count() >= 1);
        // Recompute instruction boundaries independently and check `DB`
        // markers appear exactly at unsupported instruction bytes.
        let mut pc = 0usize;
        let mut expected_db = Vec::new();
        while pc < code.len() {
            match Opcode::from_byte(code[pc]) {
                Some(op) => pc += 1 + op.immediate_len(),
                None => {
                    expected_db.push(pc);
                    pc += 1;
                }
            }
        }
        let actual_db: Vec<usize> = text
            .lines()
            .filter(|line| line.contains(": DB "))
            .filter_map(|line| usize::from_str_radix(line.split(':').next().unwrap_or(""), 16).ok())
            .collect();
        prop_assert_eq!(actual_db, expected_db);
    }

    /// The assembler and disassembler agree: assembling a program of
    /// random supported opcodes, then disassembling, preserves the
    /// mnemonic sequence (modulo immediates).
    #[test]
    fn assemble_disassemble_round_trip(ops in proptest::collection::vec(0usize..20, 1..64)) {
        // A conservative instruction menu with no control flow.
        const MENU: [&str; 20] = [
            "ADD", "MUL", "SUB", "DIV", "MOD", "LT", "GT", "EQ", "ISZERO", "AND",
            "OR", "XOR", "NOT", "POP", "CALLER", "ADDRESS", "CALLVALUE", "CALLDATASIZE", "PC", "MSIZE",
        ];
        let source: String = ops.iter().map(|&i| MENU[i]).collect::<Vec<_>>().join("\n");
        let code = assemble(&source).unwrap();
        let text = disassemble(&code);
        let mnemonics: Vec<&str> = text
            .lines()
            .filter_map(|line| line.split(": ").nth(1))
            .collect();
        prop_assert_eq!(mnemonics.len(), ops.len());
        for (line, &i) in mnemonics.iter().zip(&ops) {
            prop_assert_eq!(*line, MENU[i]);
        }
    }

    /// Gas usage is monotone in work: running the same loop for more
    /// iterations costs strictly more gas.
    #[test]
    fn gas_monotone_in_iterations(n in 1u8..40) {
        let run_iters = |iters: u8| {
            let source = format!(
                r#"
                PUSH1 0x{iters:02x}
            loop:
                JUMPDEST
                PUSH1 0x01
                SWAP1
                SUB
                DUP1
                PUSH @loop
                JUMPI
                STOP
                "#
            );
            let code = assemble(&source).unwrap();
            let env = env_with(vec![]);
            let mut storage = MemStorage::new();
            let outcome = execute(&code, &env, &mut storage, 1_000_000);
            assert_eq!(outcome.status, TxStatus::Success);
            outcome.gas_used
        };
        prop_assert!(run_iters(n + 1) > run_iters(n));
    }
}
