package store

import (
	"io"
	"os"
)

// FS is the filesystem surface the store runs on. The default
// implementation (OS) passes straight through to package os; the chaos
// layer wraps it to inject deterministic infrastructure faults — failed
// and short writes, fsync errors, slow I/O — without touching the store's
// logic. The interface is deliberately exactly the store's footprint, not
// a general VFS.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(path string) ([]os.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Truncate(path string, size int64) error
	Remove(path string) error
	Rename(oldpath, newpath string) error
}

// File is the open-file surface the store uses (a strict subset of
// *os.File). Write may return a short count with an error — the store
// repairs the resulting partial frame itself. ReadAt reads a served
// result's frame back from its segment.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Sync() error
	Seek(offset int64, whence int) (int64, error)
	Truncate(size int64) error
	Name() string
}

// osFS is the passthrough FS.
type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(path string) ([]os.DirEntry, error)   { return os.ReadDir(path) }
func (osFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (osFS) Truncate(path string, size int64) error       { return os.Truncate(path, size) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }

func (osFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
