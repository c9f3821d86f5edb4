//! The few `/proc` readings the benchmark takes. Every reader returns
//! `None` where `/proc` is missing or shaped differently, and the caller
//! reports 0 for that metric instead of failing the run.

use std::path::{Path, PathBuf};

fn field_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .map(str::trim)
}

/// `wchar` of `/proc/self/io`: bytes this process passed to `write`-like
/// system calls so far, files and sockets alike.
pub fn write_syscall_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/io").ok()?;
    field_after(&text, "wchar:")?.parse().ok()
}

/// `VmHWM` of `/proc/self/status`, in KiB.
pub fn peak_rss_kb() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    field_after(&text, "VmHWM:")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The calling thread's `/proc/self/task/<tid>` directory, for another
/// thread to read its `schedstat` from.
pub fn thread_self_dir() -> Option<PathBuf> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    let tid = link.file_name()?;
    Some(Path::new("/proc/self/task").join(tid))
}

/// Nanoseconds the thread under `task_dir` has spent on a CPU.
pub fn thread_cpu_ns(task_dir: &Path) -> Option<u64> {
    std::fs::read_to_string(task_dir.join("schedstat"))
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// File-system type of the mount that holds `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(text) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, &str)> = None;
    for line in text.lines() {
        // <id> <parent> <maj:min> <root> <mount point> <opts> … - <fstype> …
        let mut halves = line.split(" - ");
        let (Some(left), Some(right)) = (halves.next(), halves.next()) else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), fstype));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t.to_string())
}

/// The commit the checkout is at, read from `.git` without running git;
/// `unknown` in an exported tree.
pub fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}
