//! Protected non-volatile storage (the Figure 5 SRAM/Flash blocks).
//!
//! "The FLock module can store (public, private) key pairs generated by the
//! crypto processor, and the corresponding information about user account,
//! web server name, and biometric templates in protected non-volatile
//! storage." [`SecureStorage`] models that flash with a byte budget, so the
//! capacity experiment can ask how many accounts a realistic part holds.

use std::collections::BTreeMap;
use std::fmt;

use btd_crypto::schnorr::{KeyPair, PublicKey};

/// A per-web-site identity record (paper Figure 9's "User–Domain Record").
#[derive(Clone)]
pub struct DomainRecord {
    /// The web server's domain, e.g. `www.xyz.com`.
    pub domain: String,
    /// The user's account identifier on that server.
    pub account: String,
    /// The per-site key pair. Flash holds only its secret scalar (the
    /// public half is recomputable, so [`DomainRecord::encoded_size`]
    /// counts the secret alone); the public half is derived once, when
    /// the record is made or imported, not at every signature.
    pub keys: KeyPair,
    /// The server's public key, pinned at registration.
    pub server_key: PublicKey,
}

// `keys` holds the per-site signing key; Debug redacts it anyway, but the
// record names itself by the server key, which any log line may show. Identify the record by the *server's*
// public-key fingerprint instead.
impl fmt::Debug for DomainRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DomainRecord({} @ {}, server {}, user_secret: <redacted>)",
            self.account,
            self.domain,
            self.server_key.fingerprint()
        )
    }
}

impl DomainRecord {
    /// Approximate encoded size in flash, bytes.
    pub fn encoded_size(&self) -> usize {
        self.domain.len() + self.account.len() + 256 /* secret */ + 256 /* server key */ + 16
    }
}

/// Why a storage operation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StorageError {
    /// The write would exceed the flash capacity.
    CapacityExceeded,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::CapacityExceeded => f.write_str("flash capacity exceeded"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Byte-budgeted protected storage for domain records.
#[derive(Clone)]
pub struct SecureStorage {
    capacity_bytes: usize,
    records: BTreeMap<String, DomainRecord>,
}

// The flash holds every domain secret; Debug reports occupancy, never
// contents.
impl fmt::Debug for SecureStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SecureStorage({} records, {}/{} bytes, contents <redacted>)",
            self.records.len(),
            self.used(),
            self.capacity_bytes
        )
    }
}

impl SecureStorage {
    /// Creates storage with `capacity_bytes` of flash.
    pub fn new(capacity_bytes: usize) -> Self {
        SecureStorage {
            capacity_bytes,
            records: BTreeMap::new(),
        }
    }

    /// Total capacity, bytes.
    pub fn capacity(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently used.
    pub fn used(&self) -> usize {
        self.records.values().map(DomainRecord::encoded_size).sum()
    }

    /// Stores (or replaces) a domain record.
    ///
    /// # Errors
    ///
    /// [`StorageError::CapacityExceeded`] if the record does not fit; the
    /// previous record for the domain (if any) is preserved in that case.
    pub fn put_record(&mut self, record: DomainRecord) -> Result<(), StorageError> {
        let new_size = record.encoded_size();
        let old_size = self
            .records
            .get(&record.domain)
            .map_or(0, DomainRecord::encoded_size);
        if self.used() - old_size + new_size > self.capacity_bytes {
            return Err(StorageError::CapacityExceeded);
        }
        self.records.insert(record.domain.clone(), record);
        Ok(())
    }

    /// Looks up the record for `domain`.
    pub fn record(&self, domain: &str) -> Option<&DomainRecord> {
        self.records.get(domain)
    }

    /// All stored records, in domain order.
    pub fn records(&self) -> impl Iterator<Item = &DomainRecord> {
        self.records.values()
    }

    /// Number of stored domain records.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btd_crypto::entropy::ChaChaEntropy;
    use btd_crypto::group::DhGroup;
    use btd_crypto::schnorr::KeyPair;

    fn record(domain: &str) -> DomainRecord {
        let mut e = ChaChaEntropy::from_u64_seed(1);
        let kp = KeyPair::generate(DhGroup::test_512(), &mut e);
        DomainRecord {
            domain: domain.to_owned(),
            account: "alice01".to_owned(),
            server_key: kp.public_key().clone(),
            keys: kp,
        }
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let mut s = SecureStorage::one_mib();
        s.put_record(record("www.xyz.com")).unwrap();
        assert_eq!(s.record_count(), 1);
        assert_eq!(s.record("www.xyz.com").unwrap().account, "alice01");
        assert!(s.record("other.com").is_none());
        let removed = s.remove_record("www.xyz.com").unwrap();
        assert_eq!(removed.domain, "www.xyz.com");
        assert_eq!(s.record_count(), 0);
    }

    #[test]
    fn replacing_a_record_does_not_double_count() {
        let mut s = SecureStorage::one_mib();
        s.put_record(record("www.xyz.com")).unwrap();
        let used_once = s.used();
        s.put_record(record("www.xyz.com")).unwrap();
        assert_eq!(s.used(), used_once);
    }

    #[test]
    fn capacity_is_enforced() {
        let one = record("a.com").encoded_size();
        let mut s = SecureStorage::new(one * 2 + 10);
        s.put_record(record("a.com")).unwrap();
        // bb.com is one byte larger; either outcome is fine here…
        let _ = s.put_record(record("bb.com"));
        // …but a third distinct record must fail.
        let err = s.put_record(record("cc.com"));
        assert_eq!(err, Err(StorageError::CapacityExceeded));
    }

    #[test]
    fn failed_write_preserves_existing_record() {
        let one = record("a.com").encoded_size();
        let mut s = SecureStorage::new(one + 5);
        s.put_record(record("a.com")).unwrap();
        let mut big = record("a.com");
        big.account = "x".repeat(100);
        assert!(s.put_record(big).is_err());
        assert_eq!(s.record("a.com").unwrap().account, "alice01");
    }

    #[test]
    fn wipe_clears_everything() {
        let mut s = SecureStorage::one_mib();
        s.put_record(record("a.com")).unwrap();
        s.wipe();
        assert_eq!(s.used(), 0);
        assert_eq!(s.record_count(), 0);
    }

    #[test]
    fn a_mib_holds_hundreds_of_accounts() {
        let mut s = SecureStorage::one_mib();
        let mut count = 0;
        for i in 0..2_000 {
            if s.put_record(record(&format!("site-{i}.com"))).is_err() {
                break;
            }
            count += 1;
        }
        assert!(count >= 500, "only {count} records fit in 1 MiB");
    }

    impl SecureStorage {
        /// A realistic embedded part: 1 MiB of protected flash.
        pub fn one_mib() -> Self {
            SecureStorage::new(1 << 20)
        }

        /// Removes the record for `domain`, returning it.
        pub fn remove_record(&mut self, domain: &str) -> Option<DomainRecord> {
            self.records.remove(domain)
        }

        /// Erases everything (identity reset on the device side).
        pub fn wipe(&mut self) {
            self.records.clear();
        }
    }
}
