package pregel

import (
	"io"
	"os"
)

// FS is the filesystem seam DirCheckpointer performs all of its I/O
// through. The default implementation (OSFS) is the real filesystem;
// internal/testfs provides a fault-injecting in-memory implementation used
// by the crash matrices to prove the store survives torn writes, dropped
// fsyncs and crashes between write and rename.
//
// The interface is deliberately small: exactly the operations the
// checkpoint store's commit protocol needs, each with the semantics of the
// corresponding os function.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string, perm os.FileMode) error
	// CreateTemp creates a new file in dir with a unique name built from
	// pattern (the last "*" is replaced by a random string, as in
	// os.CreateTemp). Unique names are what make one checkpoint directory
	// safe to share between processes: a fixed temp name would let two
	// writers interleave into the same file.
	CreateTemp(dir, pattern string) (FSFile, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists the base names of dir's entries.
	ReadDir(dir string) ([]string, error)
	// ReadFile returns the contents of name.
	ReadFile(name string) ([]byte, error)
	// SyncDir fsyncs the directory itself, making completed renames and
	// removes of its entries durable.
	SyncDir(dir string) error
}

// FSFile is an open, writable checkpoint temp file.
type FSFile interface {
	io.Writer
	// Sync flushes the file's contents to stable storage (fsync).
	Sync() error
	Close() error
	// Name returns the path the file was created with.
	Name() string
}

// osFS is the real-filesystem FS.
type osFS struct{}

// OSFS returns the FS backed by the real filesystem (package os).
func OSFS() FS { return osFS{} }

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) CreateTemp(dir, pattern string) (FSFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is best-effort on platforms that reject it (it is a
	// no-op on some filesystems); the close error is what matters for the
	// handle itself.
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
