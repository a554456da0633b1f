//go:build !unix

package faultfs

import "os"

func readFile(name string) ([]byte, error) { return os.ReadFile(name) }
