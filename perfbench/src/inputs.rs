//! Seeded session inputs and the reference model that predicts every
//! KRB_PRIV reply.
//!
//! The model re-implements what the echo, files and mail services
//! answer, independently of the program's code, so a server that
//! answers wrongly fails the run instead of posting a number.

use std::collections::BTreeMap;

use krb_crypto::rng::{Drbg, RandomSource};

use crate::workload::{PRINCIPALS, REALM, SERVICES};

/// KRB_PRIV commands per session.
pub const COMMANDS: usize = 4;

/// One session: who logs in, which service it uses, what it sends and
/// what the service must answer.
pub struct OpInput {
    pub user: u64,
    pub service: usize,
    pub cmds: [Vec<u8>; COMMANDS],
    pub expected: [Vec<u8>; COMMANDS],
    /// Other users whose mailboxes this session writes to.
    pub recipients: Vec<u64>,
}

#[derive(Default)]
struct Model {
    files: BTreeMap<(u64, String), Vec<u8>>,
    mail: BTreeMap<u64, Vec<Vec<u8>>>,
}

fn split(cmd: &str) -> (&str, &str) {
    cmd.split_once(' ').unwrap_or((cmd, ""))
}

impl Model {
    fn answer(&mut self, service: &str, user: u64, cmd: &str) -> Vec<u8> {
        let (verb, rest) = split(cmd);
        match (service, verb) {
            ("echo", _) => format!("[u{user}@{REALM}] {cmd}").into_bytes(),
            ("files", "PUT") => {
                let (name, data) = split(rest);
                self.files
                    .insert((user, name.to_string()), data.as_bytes().to_vec());
                b"OK".to_vec()
            }
            ("files", "GET") => self
                .files
                .get(&(user, rest.to_string()))
                .cloned()
                .unwrap_or_else(|| b"ENOENT".to_vec()),
            ("files", "DEL") => match self.files.remove(&(user, rest.to_string())) {
                Some(_) => b"OK".to_vec(),
                None => b"ENOENT".to_vec(),
            },
            ("files", "LIST") => {
                let names: Vec<&str> = self
                    .files
                    .range((user, String::new())..)
                    .take_while(|((u, _), _)| *u == user)
                    .map(|((_, n), _)| n.as_str())
                    .collect();
                names.join("\n").into_bytes()
            }
            ("mail", "SEND") => {
                let (to, body) = split(rest);
                let to: u64 = to.trim_start_matches('u').parse().unwrap_or(u64::MAX);
                self.mail
                    .entry(to)
                    .or_default()
                    .push(body.as_bytes().to_vec());
                b"QUEUED".to_vec()
            }
            ("mail", "READ") => {
                let n: usize = rest.parse().unwrap_or(0);
                self.mail
                    .get(&user)
                    .and_then(|m| m.get(n))
                    .cloned()
                    .unwrap_or_else(|| b"ENOMSG".to_vec())
            }
            ("mail", "COUNT") => self
                .mail
                .get(&user)
                .map_or(0, Vec::len)
                .to_string()
                .into_bytes(),
            _ => b"EBADCMD".to_vec(),
        }
    }
}

/// Draws `n` sessions from `seed`: principals uniform over the
/// population, services uniform, commands from a per-service mix.
pub fn generate(seed: u64, n: usize) -> Vec<OpInput> {
    let mut rng = Drbg::new(seed ^ 0x696e_7075_7473);
    let mut model = Model::default();
    (0..n)
        .map(|i| {
            let user = rng.next_below(PRINCIPALS as u64);
            let service = rng.next_below(SERVICES.len() as u64) as usize;
            let mut recipients = Vec::new();
            let cmds: [Vec<u8>; COMMANDS] = std::array::from_fn(|k| {
                let cmd = match SERVICES[service] {
                    "echo" => format!("PING {i}.{k} {:016x}", rng.next_u64()),
                    "files" => {
                        let name = format!("f{}", rng.next_below(4));
                        match if k == 0 { 0 } else { rng.next_below(4) } {
                            0 => format!("PUT {name} {:016x}", rng.next_u64()),
                            1 => format!("GET {name}"),
                            2 => "LIST".to_string(),
                            _ => format!("DEL {name}"),
                        }
                    }
                    _ => match rng.next_below(3) {
                        0 => {
                            let to = if rng.next_below(2) == 0 {
                                user
                            } else {
                                rng.next_below(PRINCIPALS as u64)
                            };
                            if to != user {
                                recipients.push(to);
                            }
                            format!("SEND u{to} {:016x}", rng.next_u64())
                        }
                        1 => "COUNT".to_string(),
                        _ => format!("READ {}", rng.next_below(4)),
                    },
                };
                cmd.into_bytes()
            });
            let expected = std::array::from_fn(|k| {
                let cmd = std::str::from_utf8(&cmds[k]).expect("generated commands are ASCII");
                model.answer(SERVICES[service], user, cmd)
            });
            OpInput {
                user,
                service,
                cmds,
                expected,
                recipients,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_differs() {
        let a = generate(7, 50);
        let b = generate(7, 50);
        let c = generate(8, 50);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.user == y.user && x.cmds == y.cmds && x.expected == y.expected));
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.user != y.user || x.cmds != y.cmds));
    }

    #[test]
    fn model_tracks_file_and_mail_state() {
        let mut m = Model::default();
        assert_eq!(m.answer("files", 1, "PUT f1 abc"), b"OK");
        assert_eq!(m.answer("files", 1, "PUT f0 x"), b"OK");
        assert_eq!(m.answer("files", 1, "GET f1"), b"abc");
        assert_eq!(m.answer("files", 2, "GET f1"), b"ENOENT");
        assert_eq!(m.answer("files", 1, "LIST"), b"f0\nf1");
        assert_eq!(m.answer("files", 1, "DEL f0"), b"OK");
        assert_eq!(m.answer("mail", 3, "SEND u1 hi"), b"QUEUED");
        assert_eq!(m.answer("mail", 1, "COUNT"), b"1");
        assert_eq!(m.answer("mail", 1, "READ 0"), b"hi");
        assert_eq!(m.answer("mail", 1, "READ 1"), b"ENOMSG");
        assert_eq!(
            m.answer("echo", 5, "PING x"),
            format!("[u5@{REALM}] PING x").into_bytes()
        );
    }
}
