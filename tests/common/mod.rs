//! Helpers shared by the integration suites that write files.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A path under the system temp directory that is removed when the
/// guard drops — at the end of the test, or while a failed assert
/// unwinds. Whatever the test left there goes: a directory with its
/// contents, or a plain file.
pub struct TestDir(PathBuf);

impl TestDir {
    /// `name` under the temp directory; callers make it unique per
    /// process and test.
    pub fn new(name: String) -> Self {
        TestDir(std::env::temp_dir().join(name))
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = if self.0.is_dir() {
            std::fs::remove_dir_all(&self.0)
        } else {
            std::fs::remove_file(&self.0)
        };
    }
}

impl Deref for TestDir {
    type Target = PathBuf;

    fn deref(&self) -> &PathBuf {
        &self.0
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl From<&TestDir> for PathBuf {
    fn from(dir: &TestDir) -> PathBuf {
        dir.0.clone()
    }
}
