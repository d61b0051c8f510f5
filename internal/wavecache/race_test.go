//go:build race

package wavecache

func init() { raceBuild = true }
